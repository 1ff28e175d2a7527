package dynamic

import (
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

func TestStatic(t *testing.T) {
	g := gen.Cycle(6)
	net := NewStatic(g)
	if net.N() != 6 {
		t.Fatalf("N = %d", net.N())
	}
	for _, step := range []int{0, 1, 100} {
		if net.GraphAt(step, nil) != g {
			t.Fatal("Static returned a different graph")
		}
	}
}

func TestSequence(t *testing.T) {
	g0, g1 := gen.Cycle(5), gen.Clique(5)
	net := NewSequence([]*graph.Graph{g0, g1})
	if net.Len() != 2 || net.N() != 5 {
		t.Fatalf("Len=%d N=%d", net.Len(), net.N())
	}
	if net.GraphAt(0, nil) != g0 || net.GraphAt(1, nil) != g1 {
		t.Fatal("sequence order wrong")
	}
	if net.GraphAt(5, nil) != g1 {
		t.Fatal("sequence should repeat the last graph")
	}
	if net.GraphAt(-1, nil) != g0 {
		t.Fatal("negative step should clamp to the first graph")
	}
}

func TestSequencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sequence did not panic")
		}
	}()
	NewSequence(nil)
}

func TestSequenceMismatchedSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sizes did not panic")
		}
	}()
	NewSequence([]*graph.Graph{gen.Cycle(5), gen.Cycle(6)})
}

func TestAlternating(t *testing.T) {
	g0, g1 := gen.Cycle(5), gen.Clique(5)
	net := NewAlternating([]*graph.Graph{g0, g1})
	if net.GraphAt(0, nil) != g0 || net.GraphAt(1, nil) != g1 || net.GraphAt(2, nil) != g0 {
		t.Fatal("alternation wrong")
	}
	if net.GraphAt(-3, nil) != g0 {
		t.Fatal("negative step should clamp")
	}
}

func TestAlternatingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty alternating did not panic")
		}
	}()
	NewAlternating(nil)
}

func TestFuncAdapter(t *testing.T) {
	g := gen.Path(3)
	f := &Func{NumVertices: 3, At: func(int, []bool) *graph.Graph { return g }}
	if f.N() != 3 || f.GraphAt(7, nil) != g {
		t.Fatal("Func adapter broken")
	}
}

func TestGNRhoConstruction(t *testing.T) {
	rng := xrand.New(61)
	net, err := NewGNRho(256, 0.25, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 256 || net.Delta() != 4 || net.K() != 2 {
		t.Fatalf("unexpected parameters N=%d Delta=%d K=%d", net.N(), net.Delta(), net.K())
	}
	g0 := net.GraphAt(0, nil)
	if err := g0.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g0.IsConnected() {
		t.Fatal("GNRho step-0 graph disconnected")
	}
	if net.StartVertex() < 0 || net.StartVertex() >= net.N() {
		t.Fatal("start vertex out of range")
	}
	if net.LowerBoundSpreadTime() <= 0 {
		t.Fatal("lower bound should be positive")
	}
	if net.ConductanceScale() <= 0 || net.DiligenceScale() != 0.25 {
		t.Fatalf("scales wrong: phi=%v rho=%v", net.ConductanceScale(), net.DiligenceScale())
	}
}

func TestGNRhoAdaptation(t *testing.T) {
	rng := xrand.New(62)
	net, err := NewGNRho(256, 0.25, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	informed := make([]bool, net.N())
	informed[net.StartVertex()] = true
	g0 := net.GraphAt(0, informed)

	// Inform a few vertices from the B side (the upper three quarters).
	for v := 200; v < 210; v++ {
		informed[v] = true
	}
	g1 := net.GraphAt(1, informed)
	if g1 == g0 {
		t.Fatal("GNRho did not rebuild after B shrank")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same step again returns the cached graph.
	if net.GraphAt(1, informed) != g1 {
		t.Fatal("repeated GraphAt for the same step should return the cached graph")
	}
	// No change in informed set: graph is kept.
	if net.GraphAt(2, informed) != g1 {
		t.Fatal("GNRho rebuilt even though B did not shrink")
	}
}

func TestGNRhoKeepsGraphWhenBTooSmall(t *testing.T) {
	rng := xrand.New(63)
	net, err := NewGNRho(128, 0.25, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	informed := make([]bool, net.N())
	for v := 0; v < net.N(); v++ {
		informed[v] = true // everything informed: B would drop below n/4
	}
	g0 := net.GraphAt(0, nil)
	if net.GraphAt(1, informed) != g0 {
		t.Fatal("GNRho should keep the previous graph once B is exhausted")
	}
}

func TestGNRhoParameterValidation(t *testing.T) {
	rng := xrand.New(64)
	if _, err := NewGNRho(16, 0.5, 1, rng); err == nil {
		t.Error("tiny n should fail")
	}
	if _, err := NewGNRho(256, 0, 1, rng); err == nil {
		t.Error("rho=0 should fail")
	}
	if _, err := NewGNRho(256, 1.5, 1, rng); err == nil {
		t.Error("rho>1 should fail")
	}
	if _, err := NewGNRho(256, 0.001, 1, rng); err == nil {
		t.Error("rho far below 1/sqrt(n) should fail")
	}
}

func TestAbsGNRhoConstruction(t *testing.T) {
	rng := xrand.New(65)
	net, err := NewAbsGNRho(120, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.Delta() != 6 { // ceil(1/0.2)=5 -> rounded up to even 6
		t.Fatalf("Delta = %d, want 6", net.Delta())
	}
	g0 := net.GraphAt(0, nil)
	if err := g0.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g0.IsConnected() {
		t.Fatal("AbsGNRho step-0 graph disconnected")
	}
	// Bridge endpoints have degree Δ+1.
	if g0.Degree(net.Special()) != net.Delta()+1 {
		t.Fatalf("special degree = %d, want %d", g0.Degree(net.Special()), net.Delta()+1)
	}
	if g0.Degree(net.Boundary()) != net.Delta()+1 {
		t.Fatalf("boundary degree = %d, want %d", g0.Degree(net.Boundary()), net.Delta()+1)
	}
	if net.AbsoluteDiligenceValue() != 1.0/float64(net.Delta()+1) {
		t.Fatal("absolute diligence value wrong")
	}
	if net.LowerBoundSpreadTime() <= 0 {
		t.Fatal("lower bound should be positive")
	}
}

func TestAbsGNRhoAdaptation(t *testing.T) {
	rng := xrand.New(66)
	net, err := NewAbsGNRho(120, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	informed := make([]bool, net.N())
	informed[net.StartVertex()] = true
	g0 := net.GraphAt(0, informed)
	oldBoundary := net.Boundary()
	// Inform the boundary vertex: the adversary must move it to the A side
	// and pick a fresh uninformed boundary.
	informed[oldBoundary] = true
	g1 := net.GraphAt(1, informed)
	if g1 == g0 {
		t.Fatal("AbsGNRho did not rebuild after the boundary was informed")
	}
	if net.Boundary() == oldBoundary {
		t.Fatal("boundary vertex did not move")
	}
	if informed[net.Boundary()] {
		t.Fatal("new boundary vertex is already informed")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAbsGNRhoParameterValidation(t *testing.T) {
	rng := xrand.New(67)
	if _, err := NewAbsGNRho(20, 0.5, rng); err == nil {
		t.Error("tiny n should fail")
	}
	if _, err := NewAbsGNRho(120, 0.001, rng); err == nil {
		t.Error("rho below 10/n should fail")
	}
	if _, err := NewAbsGNRho(120, 2, rng); err == nil {
		t.Error("rho > 1 should fail")
	}
}

func TestDichotomyG1(t *testing.T) {
	net, err := NewDichotomyG1(10)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 11 || net.StartVertex() != 10 {
		t.Fatalf("N=%d start=%d", net.N(), net.StartVertex())
	}
	g0 := net.GraphAt(0, nil)
	if g0.Degree(10) != 1 || !g0.HasEdge(0, 10) {
		t.Fatal("G^(0) is not the clique with a pendant at vertex 0")
	}
	g1 := net.GraphAt(1, nil)
	if g1 == g0 {
		t.Fatal("G^(1) should differ from G^(0)")
	}
	if !g1.HasEdge(0, 10) {
		t.Fatal("bridge {0,n} missing in G^(1)")
	}
	if !g1.IsConnected() {
		t.Fatal("G^(1) disconnected")
	}
	if net.GraphAt(7, nil) != g1 {
		t.Fatal("G^(t) for t >= 1 should be constant")
	}
	// Both cliques should have roughly half the vertices: max degree about n/2.
	if g1.MaxDegree() > net.N()/2+1 {
		t.Fatalf("G^(1) max degree %d too large", g1.MaxDegree())
	}
	if _, err := NewDichotomyG1(2); err == nil {
		t.Error("tiny n should fail")
	}
}

func TestDichotomyG2(t *testing.T) {
	rng := xrand.New(68)
	net, err := NewDichotomyG2(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 9 || net.StartVertex() != 1 {
		t.Fatalf("N=%d start=%d", net.N(), net.StartVertex())
	}
	g0 := net.GraphAt(0, nil)
	if g0.Degree(0) != 8 {
		t.Fatal("G^(0) is not a star centered at 0")
	}
	informed := make([]bool, 9)
	informed[1] = true
	informed[0] = true // center got informed
	g1 := net.GraphAt(1, informed)
	c := net.Center()
	if informed[c] {
		t.Fatal("new center should be uninformed")
	}
	if g1.Degree(c) != 8 {
		t.Fatalf("new center degree = %d", g1.Degree(c))
	}
	// All informed: center becomes a random vertex, graph stays a star.
	all := make([]bool, 9)
	for i := range all {
		all[i] = true
	}
	g2 := net.GraphAt(2, all)
	if g2.MaxDegree() != 8 {
		t.Fatal("G^(2) is not a star")
	}
	if _, err := NewDichotomyG2(1, rng); err == nil {
		t.Error("tiny n should fail")
	}
}

func TestAlternatingRegularComplete(t *testing.T) {
	rng := xrand.New(69)
	net, err := NewAlternatingRegularComplete(20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sparse := net.GraphAt(0, nil)
	complete := net.GraphAt(1, nil)
	if ok, d := sparse.IsRegular(); !ok || d != 3 {
		t.Fatalf("sparse graph regularity (%v,%d)", ok, d)
	}
	if complete.M() != 20*19/2 {
		t.Fatal("second graph is not complete")
	}
	if ratio := net.MaxDegreeRatio(); ratio < 6 {
		t.Fatalf("MaxDegreeRatio = %v, want about (n-1)/3", ratio)
	}
	if _, err := NewAlternatingRegularComplete(2, 1, rng); err == nil {
		t.Error("bad parameters should fail")
	}
}

func TestEdgeMarkovian(t *testing.T) {
	rng := xrand.New(70)
	net, err := NewEdgeMarkovian(12, 0.3, 0.3, gen.Cycle(12), rng)
	if err != nil {
		t.Fatal(err)
	}
	g0 := net.GraphAt(0, nil)
	if g0.M() != 12 {
		t.Fatalf("initial graph m=%d, want 12 (the cycle)", g0.M())
	}
	g3 := net.GraphAt(3, nil)
	if err := g3.Validate(); err != nil {
		t.Fatal(err)
	}
	// With p=q=0.3 on 66 pairs the stationary edge count is ~33; after a few
	// steps the graph should have changed from the cycle.
	if g3.M() == 12 && g3.HasEdge(0, 1) && g3.HasEdge(1, 2) && g3.HasEdge(2, 3) {
		t.Log("edge-Markovian graph suspiciously unchanged (possible but unlikely)")
	}
	// Old step returns the cached graph.
	if net.GraphAt(2, nil) != g3 {
		t.Fatal("requesting an old step should return the current cached graph")
	}
}

func TestEdgeMarkovianValidation(t *testing.T) {
	rng := xrand.New(71)
	if _, err := NewEdgeMarkovian(1, 0.5, 0.5, nil, rng); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := NewEdgeMarkovian(5, 1.5, 0.5, nil, rng); err == nil {
		t.Error("p>1 should fail")
	}
	if _, err := NewEdgeMarkovian(5, 0.5, 0.5, gen.Cycle(6), rng); err == nil {
		t.Error("mismatched initial graph should fail")
	}
}

func TestMobileAgents(t *testing.T) {
	rng := xrand.New(72)
	net, err := NewMobileAgents(30, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 30 {
		t.Fatalf("N = %d", net.N())
	}
	g0 := net.GraphAt(0, nil)
	if err := g0.Validate(); err != nil {
		t.Fatal(err)
	}
	// 30 agents in 25 cells: the proximity graph is dense.
	if g0.M() == 0 {
		t.Fatal("proximity graph has no edges despite high density")
	}
	g5 := net.GraphAt(5, nil)
	if err := g5.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMobileAgents(1, 5, rng); err == nil {
		t.Error("single agent should fail")
	}
}
