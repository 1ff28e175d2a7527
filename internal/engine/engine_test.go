package engine

import (
	"errors"
	"reflect"
	"testing"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// TestRunBatchDeterministicAcrossParallelism mirrors the PR 1 runner
// determinism test at the engine level: the same seed must produce
// bit-identical ensembles for every parallelism value, including traces.
func TestRunBatchDeterministicAcrossParallelism(t *testing.T) {
	scenarios := []Scenario{
		{Network: NetworkSpec{Family: "clique", Params: Params{"n": 64}}, Trace: true},
		{Network: NetworkSpec{Family: "expander", Params: Params{"n": 96, "degree": 6}}, Protocol: ProtocolSync},
		{Network: NetworkSpec{Family: "dynamic-star", Params: Params{"n": 48}}, Protocol: ProtocolAsync},
		{Network: NetworkSpec{Family: "edge-markovian", Params: Params{"n": 40, "p": 0.1, "q": 0.3}}, Protocol: ProtocolFlooding},
	}
	const reps = 12
	for _, sc := range scenarios {
		ref, err := Engine{Parallelism: 1, Seed: 42}.RunBatch(sc, reps)
		if err != nil {
			t.Fatalf("%s/%s serial: %v", sc.Network.Family, sc.Protocol, err)
		}
		for _, p := range []int{0, 2, 3, 8} {
			got, err := Engine{Parallelism: p, Seed: 42}.RunBatch(sc, reps)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", sc.Network.Family, p, err)
			}
			for i := range ref.Results {
				if !reflect.DeepEqual(ref.Results[i], got.Results[i]) {
					t.Fatalf("%s parallelism %d: rep %d diverged from serial run:\nserial   %+v\nparallel %+v",
						sc.Network.Family, p, i, ref.Results[i], got.Results[i])
				}
			}
		}
	}
}

// TestRunBatchMatchesHistoricalSerialLoop pins the RNG stream discipline:
// RunBatch must consume randomness exactly like the historical hand-written
// loop (network from sub.Split(1), protocol from sub.Split(2), sub = the
// rep's runner stream), so pre-engine results remain reproducible forever.
func TestRunBatchMatchesHistoricalSerialLoop(t *testing.T) {
	const (
		seed = 7
		n    = 80
		reps = 9
	)
	want := make([]float64, reps)
	base := xrand.New(seed)
	for rep := 0; rep < reps; rep++ {
		sub := base.Split(uint64(rep) + 1)
		g := gen.Expander(n, 6, sub.Split(1))
		res, err := sim.RunAsync(dynamic.NewStatic(g), sim.AsyncOptions{Start: 0}, sub.Split(2))
		if err != nil {
			t.Fatal(err)
		}
		want[rep] = res.SpreadTime
	}

	ens, err := Engine{Seed: seed}.RunBatch(Scenario{
		Network: NetworkSpec{Family: "expander", Params: Params{"n": n, "degree": 6}},
	}, reps)
	if err != nil {
		t.Fatal(err)
	}
	if got := ens.SpreadTimes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine spread times %v\nwant (historical loop) %v", got, want)
	}
}

// TestScenarioJSONRoundTripIdenticalEnsemble proves the codec is lossless
// where it matters: Scenario → JSON → Scenario must produce a bit-identical
// ensemble under the same engine.
func TestScenarioJSONRoundTripIdenticalEnsemble(t *testing.T) {
	scenarios := []Scenario{
		{
			Name:    "clique-async-pushpull",
			Network: NetworkSpec{Family: "clique", Params: Params{"n": 72}},
			Mode:    sim.PushPull,
			Trace:   true,
		},
		{
			Name:      "gnrho-push-capped",
			Network:   NetworkSpec{Family: "gnrho", Params: Params{"n": 64, "rho": 0.5}},
			Protocol:  ProtocolAsync,
			Mode:      sim.PushOnly,
			ClockRate: 2,
			MaxTime:   500,
		},
		{
			Name:      "star-sync-pull-start0",
			Network:   NetworkSpec{Family: "star", Params: Params{"n": 65}},
			Protocol:  ProtocolSync,
			Mode:      sim.PullOnly,
			Start:     StartAt(0),
			MaxRounds: 300,
			Trace:     true,
		},
		{
			Name:     "mobile-flooding",
			Network:  NetworkSpec{Family: "mobile", Params: Params{"n": 50, "side": 4}},
			Protocol: ProtocolFlooding,
		},
	}
	eng := Engine{Parallelism: 3, Seed: 20200424}
	const reps = 8
	for _, sc := range scenarios {
		want, err := eng.RunBatch(sc, reps)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		data, err := Encode(sc)
		if err != nil {
			t.Fatalf("%s: encode: %v", sc.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v\nJSON:\n%s", sc.Name, err, data)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("%s: scenario did not round-trip:\nbefore %+v\nafter  %+v\nJSON:\n%s", sc.Name, sc, back, data)
		}
		got, err := eng.RunBatch(back, reps)
		if err != nil {
			t.Fatalf("%s: rerun: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: ensemble after JSON round-trip diverged", sc.Name)
		}
	}
}

// StartAt mirrors the public helper; defined here to keep the internal
// package free of the rumor facade.
func StartAt(v int) *int { return &v }

func TestRunBatchCustomFactory(t *testing.T) {
	calls := 0
	sc := Scenario{Network: NetworkSpec{Custom: func(rng *xrand.RNG) (dynamic.Network, int, error) {
		calls++
		return dynamic.NewStatic(gen.Star(30, 0)), 1, nil
	}}}
	ens, err := Engine{Parallelism: 1, Seed: 3}.RunBatch(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("custom factory called %d times, want once per repetition (5)", calls)
	}
	if ens.CompletionRate() != 1 {
		t.Fatalf("completion rate %v, want 1", ens.CompletionRate())
	}
	if _, err := Encode(sc); err != ErrNotSerializable {
		t.Fatalf("Encode(custom scenario) error = %v, want ErrNotSerializable", err)
	}
}

func TestRunBatchErrors(t *testing.T) {
	eng := Engine{}
	if _, err := eng.RunBatch(Scenario{Network: NetworkSpec{Family: "clique", Params: Params{"n": 8}}}, 0); err == nil {
		t.Fatal("RunBatch with 0 reps must error")
	}
	if _, err := eng.RunBatch(Scenario{}, 4); err == nil {
		t.Fatal("RunBatch with an empty network spec must error")
	}
	if _, err := eng.RunBatch(Scenario{Network: NetworkSpec{Family: "no-such-family", Params: Params{"n": 8}}}, 4); err == nil {
		t.Fatal("RunBatch with an unknown family must error")
	}
	if _, err := eng.RunBatch(Scenario{
		Network:  NetworkSpec{Family: "clique", Params: Params{"n": 8}},
		Protocol: ProtocolKind("gossip"),
	}, 4); err == nil {
		t.Fatal("RunBatch with an unknown protocol must error")
	}
	// An out-of-range start surfaces the simulator's error wrapped in a
	// RepError identifying the repetition.
	_, err := eng.RunBatch(Scenario{
		Network: NetworkSpec{Family: "clique", Params: Params{"n": 8}},
		Start:   StartAt(99),
	}, 4)
	var re *runner.RepError
	if !errors.As(err, &re) {
		t.Fatalf("out-of-range start: error %v, want a *runner.RepError", err)
	}
	if !errors.Is(err, sim.ErrInvalidStart) {
		t.Fatalf("out-of-range start: error %v does not unwrap to sim.ErrInvalidStart", err)
	}
}

func TestFamiliesListsStaticAndDynamic(t *testing.T) {
	fams := Families()
	seen := map[string]bool{}
	for _, f := range fams {
		seen[f] = true
	}
	for _, want := range []string{"clique", "star", "expander", "er", "gnrho", "absgnrho", "dynamic-star", "dichotomy-g1", "edge-markovian", "mobile"} {
		if !seen[want] {
			t.Fatalf("Families() = %v, missing %q", fams, want)
		}
	}
}
