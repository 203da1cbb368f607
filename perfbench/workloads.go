package main

import (
	"fmt"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/explore"
	"mpbasset/internal/por"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// pin is the exact outcome a workload must reproduce on every run, traced
// or not. A run that explores fewer states is a failed operation, not a
// speed-up.
type pin struct {
	Verdict                             explore.Verdict
	States, Events, Revisits, Deadlocks int
	MaxDepth                            int
	Full, Reduced, Proviso              int
}

func pinOf(r *explore.Result) pin {
	s := r.Stats
	return pin{r.Verdict, s.States, s.Events, s.Revisits, s.Deadlocks, s.MaxDepth,
		s.FullExpansions, s.ReducedExpansions, s.ProvisoExpansions}
}

func (want pin) check(r *explore.Result, err error) error {
	if err != nil {
		return err
	}
	if got := pinOf(r); got != want {
		return fmt.Errorf("result %+v, pinned %+v", got, want)
	}
	return nil
}

// dporCap is the state cap of paxos-dpor: the stateless DPOR search of
// Paxos (2,3,1) does not finish in a benchmark run, so it stops here.
const dporCap = 50000

// workload is one fixed model-checking job. bench.check runs it through
// the facade exactly as a user would; traced runs the engine Check selects
// for opts, on the store and canonicalizer Check would build, with the
// benchmark's timing wrappers around the public hooks. The traced run's
// pin check is what proves the two take the same path.
type workload struct {
	name string
	// build constructs the protocol; analyze runs the static analysis the
	// search needs. Together they are the workload's set-up.
	build   func() (*core.Protocol, error)
	analyze func(*core.Protocol) error
	opts    mpbasset.Options
	pin     pin
	traced  func(p *core.Protocol, t *tracer, workers int) (*explore.Result, error)
}

func paxosQuorum() (*core.Protocol, error) {
	return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 2})
}

func finalize(p *core.Protocol) error { return p.Finalize() }

func newExpander(p *core.Protocol) error {
	_, err := por.NewExpander(p)
	return err
}

func newAnalysis(p *core.Protocol) error {
	_, err := por.NewAnalysis(p)
	return err
}

// dfsTraced runs explore.DFS over a HashStore, as Check does for the
// sequential DFS searches.
func dfsTraced(p *core.Protocol, t *tracer, exp explore.Expander) (*explore.Result, error) {
	store, err := t.wrapStore(explore.NewHashStore())
	if err != nil {
		return nil, err
	}
	t.invariant(p)
	return explore.DFS(p, explore.Options{
		Expander: tracedExpander{inner: exp, t: t},
		Store:    store,
		Canon:    t.canon,
	})
}

// bfsTraced runs sequential BFS (workers 0) or ParallelBFS, each over the
// store Check builds for it. The expander is never wrapped: both engines
// type-assert explore.FullExpander.
func bfsTraced(p *core.Protocol, t *tracer, workers int) (*explore.Result, error) {
	var inner explore.Store = explore.NewHashStore()
	if workers > 0 {
		inner = explore.NewShardedHashStore()
	}
	store, err := t.wrapStore(inner)
	if err != nil {
		return nil, err
	}
	t.invariant(p)
	xo := explore.Options{Store: store, Canon: t.canon, Workers: workers}
	if workers > 0 {
		return explore.ParallelBFS(p, xo)
	}
	return explore.BFS(p, xo)
}

var workloads = []*workload{
	{
		name:    "paxos-spor",
		build:   paxosQuorum,
		analyze: newExpander,
		opts:    mpbasset.Options{Search: mpbasset.SearchSPOR},
		pin:     pin{Verdict: explore.VerdictVerified, States: 57082, Events: 165639, Revisits: 108558, Deadlocks: 2172, MaxDepth: 18, Full: 39641, Reduced: 15269},
		traced: func(p *core.Protocol, t *tracer, workers int) (*explore.Result, error) {
			exp, err := por.NewExpander(p)
			if err != nil {
				return nil, err
			}
			return dfsTraced(p, t, exp)
		},
	},
	{
		name: "storage-unreduced",
		build: func() (*core.Protocol, error) {
			return storage.New(storage.Config{Objects: 4, Readers: 1})
		},
		analyze: finalize,
		opts:    mpbasset.Options{Search: mpbasset.SearchUnreduced},
		pin:     pin{Verdict: explore.VerdictVerified, States: 65914, Events: 244826, Revisits: 178913, Deadlocks: 2196, MaxDepth: 18, Full: 63718},
		traced: func(p *core.Protocol, t *tracer, workers int) (*explore.Result, error) {
			// explore.DFS does not type-assert its expander, so the
			// pass-through wrapper only adds the boundary that separates
			// Enabled from Execute.
			return dfsTraced(p, t, explore.FullExpander{})
		},
	},
	{
		name:    "paxos-bfs-par",
		build:   paxosQuorum,
		analyze: finalize,
		// Parallel workloads pair every Check with a sequential Check of
		// the same model (Workers: 0) to measure speedup.
		opts: mpbasset.Options{Search: mpbasset.SearchBFS, Workers: 2},
		pin:  pin{Verdict: explore.VerdictVerified, States: 69433, Events: 256715, Revisits: 187283, Deadlocks: 2172, MaxDepth: 18, Full: 67261},
		traced: func(p *core.Protocol, t *tracer, workers int) (*explore.Result, error) {
			return bfsTraced(p, t, workers)
		},
	},
	{
		name: "paxos-dpor",
		build: func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
		},
		analyze: newAnalysis,
		opts:    mpbasset.Options{Search: mpbasset.SearchDPOR, MaxStates: dporCap},
		pin:     pin{Verdict: explore.VerdictLimit, States: dporCap, Events: dporCap - 1, Deadlocks: 14317, MaxDepth: 22},
		traced: func(p *core.Protocol, t *tracer, workers int) (*explore.Result, error) {
			t.invariant(p)
			t.guardsAndApplies(p)
			return dpor.Explore(p, explore.Options{MaxStates: dporCap})
		},
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setup builds the protocol and runs its static analysis once.
func (w *workload) setup() (*core.Protocol, error) {
	p, err := w.build()
	if err != nil {
		return nil, err
	}
	return p, w.analyze(p)
}
