package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// referenceIndex is the straightforward linear-search bucketer the shift
// arithmetic must agree with.
func referenceIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	for i := 0; i < NumBuckets-1; i++ {
		if v < BucketBound(i) {
			return i
		}
	}
	return NumBuckets - 1
}

func TestBucketIndexMatchesReference(t *testing.T) {
	values := []int64{0, 1, 1023, 1024, 1025, 1279, 1280, 1535, 1536, 2047, 2048}
	for e := minExp; e <= maxExp+2 && e < 63; e++ {
		base := int64(1) << uint(e)
		values = append(values, base-1, base, base+1, base+base/4, base+base/2, base+3*base/4, 2*base-1)
	}
	values = append(values, math.MaxInt64, -5)
	for _, v := range values {
		if got, want := bucketIndex(v), referenceIndex(v); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestBucketBoundsContiguousAndIncreasing(t *testing.T) {
	if BucketBound(0) != 1<<minExp {
		t.Errorf("underflow bound = %d, want %d", BucketBound(0), int64(1)<<minExp)
	}
	for i := 1; i < NumBuckets-1; i++ {
		lo, hi := BucketBound(i-1), BucketBound(i)
		if hi <= lo {
			t.Fatalf("bucket %d: bound %d not above previous %d", i, hi, lo)
		}
		// A value just below the bound lands here; the bound itself in the
		// next bucket (half-open intervals).
		if got := bucketIndex(hi - 1); got != i {
			t.Errorf("bucketIndex(%d) = %d, want %d", hi-1, got, i)
		}
		if got := bucketIndex(hi); got != i+1 {
			t.Errorf("bucketIndex(%d) = %d, want %d", hi, got, i+1)
		}
	}
	if last := BucketBound(NumBuckets - 1); last != -1 {
		t.Errorf("overflow bound = %d, want -1", last)
	}
	if top := BucketBound(NumBuckets - 2); top != 1<<maxExp {
		t.Errorf("top finite bound = %d, want %d", top, int64(1)<<maxExp)
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram("test", "help")
	durations := []time.Duration{500 * time.Nanosecond, 3 * time.Microsecond,
		2 * time.Millisecond, 2 * time.Millisecond, 150 * time.Millisecond, 90 * time.Second}
	for _, d := range durations {
		h.Observe(d)
	}
	s := h.Snapshot()
	if got := s.Total(); got != uint64(len(durations)) {
		t.Fatalf("Total = %d, want %d", got, len(durations))
	}
	var wantSum int64
	for _, d := range durations {
		wantSum += int64(d)
	}
	if s.SumNanos != wantSum {
		t.Errorf("SumNanos = %d, want %d", s.SumNanos, wantSum)
	}
	if s.Counts[0] != 1 {
		t.Errorf("underflow count = %d, want 1", s.Counts[0])
	}
	if s.Counts[NumBuckets-1] != 1 {
		t.Errorf("overflow count = %d, want 1", s.Counts[NumBuckets-1])
	}
	if got := s.Counts[bucketIndex(int64(2*time.Millisecond))]; got != 2 {
		t.Errorf("2ms bucket count = %d, want 2", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("q", "")
	// 100 observations at ~1ms, 100 at ~100ms: the median straddles the
	// boundary between the two populations and p99 must sit near 100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	p25 := s.Quantile(0.25)
	if p25 < 0.0005 || p25 > 0.002 {
		t.Errorf("p25 = %g s, want ~0.001", p25)
	}
	p99 := s.Quantile(0.99)
	if p99 < 0.05 || p99 > 0.2 {
		t.Errorf("p99 = %g s, want ~0.1", p99)
	}
	if got := (Snapshot{Counts: make([]uint64, NumBuckets)}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	// Every observation in the overflow bucket: quantiles report its lower
	// bound rather than infinity.
	o := NewHistogram("o", "")
	o.Observe(5 * time.Minute)
	if got, want := o.Snapshot().Quantile(0.5), float64(int64(1)<<maxExp)/1e9; got != want {
		t.Errorf("overflow quantile = %g, want %g", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("c", "")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Total(); got != goroutines*per {
		t.Fatalf("Total = %d, want %d", got, goroutines*per)
	}
}

func TestNilHistogramIsSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("queue_wait", "first help")
	b := r.Histogram("queue_wait", "ignored")
	if a != b {
		t.Fatal("same name returned distinct histograms")
	}
	r.Histogram("run_duration", "")
	a.Observe(time.Millisecond)
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("Snapshots len = %d, want 2", len(snaps))
	}
	if snaps[0].Name != "queue_wait" || snaps[1].Name != "run_duration" {
		t.Errorf("registration order not preserved: %q, %q", snaps[0].Name, snaps[1].Name)
	}
	if snaps[0].Help != "first help" {
		t.Errorf("help = %q, want the first creation's", snaps[0].Help)
	}
	if snaps[0].Total() != 1 {
		t.Errorf("queue_wait Total = %d, want 1", snaps[0].Total())
	}
}
