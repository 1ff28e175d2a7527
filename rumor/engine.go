package rumor

import (
	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/sim"
)

// The scenario/engine layer is the primary way to run simulations: describe
// what to run as a declarative (JSON-serializable) Scenario, then hand it to
// an Engine, which fans Monte-Carlo repetitions across worker goroutines with
// bit-identical results for every parallelism value.
//
//	eng := rumor.Engine{Seed: 1}
//	ens, err := eng.RunBatch(rumor.Scenario{
//		Network:  rumor.NetworkSpec{Family: "clique", Params: rumor.Params{"n": 1000}},
//		Protocol: rumor.ProtocolAsync,
//	}, 64)
//	// ens.MeanSpreadTime() is Θ(log n) on the clique.
type (
	// Scenario declaratively describes one simulation setup.
	Scenario = engine.Scenario
	// NetworkSpec selects a scenario's network by family name + params, or by
	// a custom in-code factory.
	NetworkSpec = engine.NetworkSpec
	// NetworkFactory builds a fresh network per repetition (programmatic
	// scenarios).
	NetworkFactory = engine.NetworkFactory
	// Params carries the numeric parameters of a network family.
	Params = engine.Params
	// ProtocolKind names a spreading algorithm ("async", "sync", "flooding").
	ProtocolKind = engine.ProtocolKind
	// Engine executes scenarios with a fixed parallelism and seed policy.
	Engine = engine.Engine
	// Ensemble aggregates the results of a batch run.
	Ensemble = engine.Ensemble
	// Reducer consumes one repetition's result during Engine.RunReduceCtx;
	// it is called in strict repetition order and must not retain the
	// result.
	Reducer = engine.Reducer
	// BatchStats is the O(1)-memory aggregate of a streaming run; its Add
	// method is a Reducer.
	BatchStats = engine.BatchStats
	// Protocol is the execution contract unifying the three simulators.
	Protocol = sim.Protocol
)

// The spreading algorithms a scenario can select.
const (
	// ProtocolAsync is the asynchronous push-pull process of Definition 1.
	ProtocolAsync = engine.ProtocolAsync
	// ProtocolSync is the synchronous round-based push-pull process.
	ProtocolSync = engine.ProtocolSync
	// ProtocolFlooding is synchronous flooding.
	ProtocolFlooding = engine.ProtocolFlooding
)

// Concrete protocols, for callers that want to run a simulator directly
// against a network without going through a Scenario.
type (
	// AsyncProtocol is the asynchronous push-pull simulator as a Protocol.
	AsyncProtocol = sim.AsyncProtocol
	// SyncProtocol is the synchronous push-pull simulator as a Protocol.
	SyncProtocol = sim.SyncProtocol
	// FloodingProtocol is the flooding simulator as a Protocol.
	FloodingProtocol = sim.FloodingProtocol
)

// NewBatchStats returns an empty streaming aggregate; hand its Add method to
// Engine.RunReduceCtx to fold a run into it in O(1) memory:
//
//	st := rumor.NewBatchStats()
//	err := eng.RunReduceCtx(ctx, sc, 100000, st.Add)
func NewBatchStats() *BatchStats { return engine.NewBatchStats() }

// ParseScenario decodes and validates a JSON scenario. Unknown fields are
// rejected so typos in scenario files fail loudly.
func ParseScenario(data []byte) (Scenario, error) { return engine.Parse(data) }

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (Scenario, error) { return engine.Load(path) }

// EncodeScenario renders a scenario as indented JSON; scenarios carrying a
// custom network factory are rejected.
func EncodeScenario(s Scenario) ([]byte, error) { return engine.Encode(s) }

// NetworkFamilies lists every network family name a NetworkSpec can select,
// in sorted order.
func NetworkFamilies() []string { return engine.Families() }

// StartAt is a convenience for Scenario.Start, which is a pointer so that
// "unset" (use the family's default start vertex) is distinguishable from
// vertex 0.
func StartAt(v int) *int { return &v }

// ParseMode converts a mode name ("push-pull", "push", "pull") to a Mode;
// the empty string parses to the zero value, which every simulator treats
// as PushPull.
func ParseMode(s string) (Mode, error) { return sim.ParseMode(s) }
