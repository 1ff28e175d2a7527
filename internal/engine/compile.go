package engine

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"dynamicrumor/internal/dynamic"
)

// Compiled is a scenario compiled ahead of execution: validation done, the
// execution strategy selected, and — for deterministic and shareable
// families — the network materialized. A Compiled is immutable and safe for
// concurrent use; one value can back many batches (Engine.RunReduceCompiledCtx)
// without recompiling, which is what lets a parameter sweep pay the scenario
// compilation once per distinct cell shape instead of once per run.
type Compiled struct {
	cs *compiledScenario
}

// Scenario returns the scenario this value was compiled from.
func (c *Compiled) Scenario() Scenario { return c.cs.sc }

// Compile validates the scenario and compiles it for repeated execution.
// Compile(sc) followed by RunReduceCompiledCtx is bit-identical to
// RunReduceCtx(sc): compilation is the same step the engine performs
// internally, only hoisted out so callers can amortize it.
func Compile(sc Scenario) (*Compiled, error) {
	return (*CompileSet)(nil).Compile(sc)
}

// CompileSet compiles scenarios while sharing the expensive part — the
// read-only networks of deterministic static families and shareable dynamic
// families — across every scenario compiled through the same set. Two
// scenarios whose network specs are equal (same family, same parameters)
// reuse one built network no matter how they differ in protocol, stream,
// mode or any other execution option; the sweep planner leans on this to
// build each distinct grid network once for the whole sweep.
//
// Sharing is sound precisely because those constructions honor the no-draw
// contract (gen.Family.Deterministic, dynamicFamily.shareable): building
// them consumes no randomness and the built network is immutable, so whether
// one cell's workers or every cell's workers read it is invisible to every
// repetition's RNG stream. Non-shareable families (random static, stateful
// dynamic, custom factories) compile per scenario exactly as before.
//
// A CompileSet is safe for concurrent use.
type CompileSet struct {
	mu   sync.Mutex
	nets map[string]sharedNetwork
}

type sharedNetwork struct {
	net   dynamic.Network
	start int
}

// NewCompileSet returns an empty compile set.
func NewCompileSet() *CompileSet {
	return &CompileSet{nets: make(map[string]sharedNetwork)}
}

// Compile validates and compiles the scenario, reusing any shared network an
// earlier Compile on this set already built for the same network spec. A nil
// set is valid and compiles unshared, exactly like the package-level Compile,
// so callers holding an optional set need not branch on it.
func (set *CompileSet) Compile(sc Scenario) (*Compiled, error) {
	cs, err := compileScenario(sc, set)
	if err != nil {
		return nil, err
	}
	return &Compiled{cs: cs}, nil
}

// Networks reports how many distinct shared networks the set holds.
func (set *CompileSet) Networks() int {
	set.mu.Lock()
	defer set.mu.Unlock()
	return len(set.nets)
}

// lookupOrBuild returns the cached shared network for the spec, building and
// caching it on first use. A nil set always builds.
func (set *CompileSet) lookupOrBuild(ns NetworkSpec, build func() (dynamic.Network, int, error)) (dynamic.Network, int, error) {
	if set == nil {
		return build()
	}
	key := networkKey(ns)
	set.mu.Lock()
	if e, ok := set.nets[key]; ok {
		set.mu.Unlock()
		return e.net, e.start, nil
	}
	set.mu.Unlock()
	// Build outside the lock: constructions can be large, and two concurrent
	// first builds of the same spec are merely redundant, never wrong — the
	// networks are deterministic, so last-writer-wins stores equal values.
	net, start, err := build()
	if err != nil {
		return nil, 0, err
	}
	set.mu.Lock()
	if e, ok := set.nets[key]; ok {
		// A concurrent build won the race; share its instance so every later
		// cell reads one network.
		net, start = e.net, e.start
	} else {
		set.nets[key] = sharedNetwork{net: net, start: start}
	}
	set.mu.Unlock()
	return net, start, nil
}

// networkKey renders a declarative network spec as a map key: the family
// name plus the sorted parameters in their shortest round-trip float
// spelling. Equal keys mean gen-level equal constructions.
func networkKey(ns NetworkSpec) string {
	keys := make([]string, 0, len(ns.Params))
	for k := range ns.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(ns.Family)
	for _, k := range keys {
		b.WriteByte(0)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(ns.Params[k], 'g', -1, 64))
	}
	return b.String()
}
