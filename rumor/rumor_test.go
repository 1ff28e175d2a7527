package rumor_test

import (
	"math"
	"testing"

	"dynamicrumor/rumor"
)

func TestQuickstartFlow(t *testing.T) {
	rng := rumor.NewRNG(1)
	net := rumor.Static(rumor.Clique(200))
	res, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0}}.Run(net, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Informed != 200 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.SpreadTime > 10*math.Log(200) {
		t.Fatalf("clique spread time %v far above Θ(log n)", res.SpreadTime)
	}
}

func TestGraphConstructorsAndParameters(t *testing.T) {
	g := rumor.Cycle(10)
	if g.N() != 10 || g.M() != 10 {
		t.Fatal("cycle wrong")
	}
	if rho := rumor.AbsoluteDiligence(g); rho != 0.5 {
		t.Fatalf("absolute diligence %v, want 0.5", rho)
	}
	phi, err := rumor.Conductance(g)
	if err != nil || math.Abs(phi-0.2) > 1e-9 {
		t.Fatalf("conductance (%v, %v)", phi, err)
	}
	rho, err := rumor.Diligence(g)
	if err != nil || rho != 1 {
		t.Fatalf("diligence (%v, %v)", rho, err)
	}
	upper, lower, err := rumor.ConductanceEstimate(rumor.Expander(300, 6, rumor.NewRNG(2)))
	if err != nil || upper <= 0 || lower < 0 {
		t.Fatalf("conductance estimate (%v, %v, %v)", upper, lower, err)
	}
	member := []bool{true, true, false, false, false, false, false, false, false, false}
	if cd := rumor.CutDiligence(g, member); cd != 1 {
		t.Fatalf("cut diligence %v, want 1 on a regular graph", cd)
	}
	p := rumor.MeasureProfile(rumor.Star(12, 0))
	if p.Phi != 1 || p.Rho != 1 {
		t.Fatalf("star profile %+v", p)
	}
}

func TestBuilderAndFromEdges(t *testing.T) {
	b := rumor.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.M() != 2 {
		t.Fatal("builder wrong")
	}
	g2 := rumor.FromEdges(3, []rumor.Edge{{U: 0, V: 2}})
	if g2.M() != 1 {
		t.Fatal("FromEdges wrong")
	}
}

func TestDynamicNetworkConstructors(t *testing.T) {
	rng := rumor.NewRNG(3)
	seq := rumor.Sequence([]*rumor.Graph{rumor.Cycle(8), rumor.Clique(8)})
	if seq.N() != 8 {
		t.Fatal("sequence wrong")
	}
	alt := rumor.Alternating([]*rumor.Graph{rumor.Cycle(8), rumor.Clique(8)})
	if alt.GraphAt(2, nil) != alt.GraphAt(0, nil) {
		t.Fatal("alternating wrong")
	}
	adaptive := rumor.AdaptiveFunc(8, func(t int, informed []bool) *rumor.Graph { return rumor.Cycle(8) })
	if adaptive.N() != 8 || adaptive.GraphAt(0, nil).M() != 8 {
		t.Fatal("adaptive func wrong")
	}
	if _, err := rumor.NewRhoDiligentNetwork(256, 0.25, 0, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.NewAbsDiligentNetwork(120, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.NewDichotomyG1(16); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.NewDichotomyG2(16, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.NewEdgeMarkovian(16, 0.2, 0.2, nil, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.NewMobileAgents(16, 4, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.RandomRegular(16, 3, rng); err != nil {
		t.Fatal(err)
	}
	if rumor.ErdosRenyi(16, 0.3, rng).N() != 16 {
		t.Fatal("ER wrong")
	}
	if rumor.Hypercube(3).N() != 8 || rumor.Torus(3, 3).N() != 9 ||
		rumor.CompleteBipartite(2, 3).N() != 5 || rumor.Path(4).M() != 3 {
		t.Fatal("family constructors wrong")
	}
}

func TestSpreadVariantsOnPublicAPI(t *testing.T) {
	rng := rumor.NewRNG(4)
	net := rumor.Static(rumor.Star(30, 0))
	if _, err := (rumor.SyncProtocol{Opts: rumor.SyncOptions{Start: 1}}).Run(net, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := (rumor.FloodingProtocol{Opts: rumor.SyncOptions{Start: 1}}).Run(net, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := rumor.SpreadAsyncNaive(net, rumor.AsyncOptions{Start: 1}, rng); err != nil {
		t.Fatal(err)
	}
	res, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 1, Mode: rumor.PushOnly}}.Run(net, rng)
	if err != nil || !res.Completed {
		t.Fatalf("push-only on star failed: %v %+v", err, res)
	}
	if rumor.PushPull.String() != "push-pull" || rumor.PullOnly.String() != "pull" {
		t.Fatal("mode constants wrong")
	}
}

func TestBoundsOnPublicAPI(t *testing.T) {
	profile := rumor.ConstantProfile(rumor.StepProfile{Phi: 1, Rho: 1, AbsRho: 1, Connected: true})
	t11, err := rumor.Theorem11Bound(profile, 100, 1, 0)
	if err != nil || t11 <= 0 {
		t.Fatalf("Theorem11Bound (%v, %v)", t11, err)
	}
	tabs, err := rumor.AbsoluteBound(profile, 100, 0)
	if err != nil || tabs != 199 {
		t.Fatalf("AbsoluteBound (%v, %v)", tabs, err)
	}
	comb, err := rumor.CombinedBound(profile, 100, 1, 0)
	if err != nil || comb != tabs {
		t.Fatalf("CombinedBound (%v, %v), want %v", comb, err, tabs)
	}
	if rumor.WorstCaseSpreadTime(10) != 180 {
		t.Fatal("WorstCaseSpreadTime wrong")
	}
}

func TestDichotomyThroughPublicAPI(t *testing.T) {
	// The headline qualitative result reachable in a few lines of public API:
	// the synchronous process needs exactly n rounds on the dynamic star while
	// the asynchronous one finishes in Θ(log n) time.
	rng := rumor.NewRNG(5)
	const n = 100
	star, err := rumor.NewDichotomyG2(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	syncRes, err := rumor.SyncProtocol{Opts: rumor.SyncOptions{Start: star.StartVertex()}}.Run(star, rng)
	if err != nil {
		t.Fatal(err)
	}
	if syncRes.SpreadTime != n {
		t.Fatalf("sync on dynamic star = %v rounds, want %d", syncRes.SpreadTime, n)
	}
	star2, err := rumor.NewDichotomyG2(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: star2.StartVertex()}}.Run(star2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if asyncRes.SpreadTime >= float64(n)/2 {
		t.Fatalf("async on dynamic star = %v, want Θ(log n)", asyncRes.SpreadTime)
	}
}

func TestExperimentRegistryThroughPublicAPI(t *testing.T) {
	ids := rumor.ExperimentIDs()
	if len(ids) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(ids))
	}
	if _, ok := rumor.ExperimentTitle("E1"); !ok {
		t.Fatal("E1 title missing")
	}
	if _, err := rumor.RunExperiment("does-not-exist", rumor.QuickExperimentConfig()); err == nil {
		t.Fatal("unknown experiment should error")
	}
	cfg := rumor.DefaultExperimentConfig()
	if cfg.Seed == 0 {
		t.Fatal("default config missing seed")
	}
}

func TestRunSingleExperimentThroughPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tbl, err := rumor.RunExperiment("E7", rumor.QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Passed {
		t.Fatalf("E7 failed:\n%s", tbl.Text())
	}
	if tbl.CSV() == "" || tbl.Text() == "" {
		t.Fatal("renderings empty")
	}
}

func TestSpreadCurveAnalysisThroughPublicAPI(t *testing.T) {
	rng := rumor.NewRNG(8)
	net := rumor.Static(rumor.Clique(150))
	var results []*rumor.Result
	for i := 0; i < 6; i++ {
		res, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0, RecordTrace: true}}.Run(net, rng)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	curve, err := rumor.SpreadCurve(results, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 25 || curve[len(curve)-1].MeanFraction < 0.99 {
		t.Fatalf("unexpected curve end: %+v", curve[len(curve)-1])
	}
	median, q90, err := rumor.TimeToFractionQuantiles(results, 0.5)
	if err != nil || median <= 0 || q90 < median {
		t.Fatalf("quantiles (%v, %v, %v)", median, q90, err)
	}
	if times, reached := rumor.TimeToFraction(results, 0.5); reached != 6 || len(times) != 6 {
		t.Fatalf("TimeToFraction reached %d", reached)
	}
	rate, err := rumor.ExponentialGrowthRate(results[0])
	if err != nil || rate <= 0 {
		t.Fatalf("growth rate (%v, %v)", rate, err)
	}
}
