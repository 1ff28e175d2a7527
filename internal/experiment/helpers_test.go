package experiment

import (
	"reflect"
	"testing"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// TestMeasureHelpersMatchHistoricalLoop pins the measure* helpers to the
// pre-engine serial loops: network built from stream Split(1), simulator run
// from Split(2). If the engine migration ever changes the stream discipline,
// every historical table would silently shift; this test makes that loud.
func TestMeasureHelpersMatchHistoricalLoop(t *testing.T) {
	const (
		n    = 60
		reps = 7
	)
	cfg := Config{Parallelism: 3}
	factory := func(rng *xrand.RNG) (dynamic.Network, int, error) {
		return dynamic.NewStatic(gen.Expander(n, 6, rng)), 0, nil
	}

	historicalAsync := func(base *xrand.RNG) []float64 {
		out := make([]float64, reps)
		for rep := range out {
			sub := base.Split(uint64(rep) + 1)
			net, start, err := factory(sub.Split(1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunAsync(net, sim.AsyncOptions{Start: start}, sub.Split(2))
			if err != nil {
				t.Fatal(err)
			}
			out[rep] = res.SpreadTime
		}
		return out
	}
	want := historicalAsync(xrand.New(99))
	got, err := measureAsync(cfg, factory, reps, xrand.New(99), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("measureAsync = %v\nhistorical loop = %v", got, want)
	}

	historicalSync := func(base *xrand.RNG) []float64 {
		out := make([]float64, reps)
		for rep := range out {
			sub := base.Split(uint64(rep) + 1)
			net, start, err := factory(sub.Split(1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunSync(net, sim.SyncOptions{Start: start}, sub.Split(2))
			if err != nil {
				t.Fatal(err)
			}
			out[rep] = res.SpreadTime
		}
		return out
	}
	wantS := historicalSync(xrand.New(5))
	gotS, err := measureSync(cfg, factory, reps, xrand.New(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("measureSync = %v\nhistorical loop = %v", gotS, wantS)
	}
}

func TestMeasureFlooding(t *testing.T) {
	const reps = 5
	cfg := Config{Parallelism: 2}
	factory := staticFactory(dynamic.NewStatic(gen.Cycle(32)), 0)
	times, err := measureFlooding(cfg, factory, reps, xrand.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != reps {
		t.Fatalf("got %d times, want %d", len(times), reps)
	}
	// Flooding on a cycle informs exactly two new vertices per round:
	// ceil((n-1)/2) = 16 rounds, deterministically, for every repetition.
	for i, x := range times {
		if x != 16 {
			t.Fatalf("rep %d: flooding on C_32 took %v rounds, want 16", i, x)
		}
	}
}
