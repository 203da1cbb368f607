package por

import (
	"math/bits"
	"sort"
	"sync"

	"mpbasset/internal/explore"

	"mpbasset/internal/core"
)

// Expander is the static-POR expander plugged into the searches of package
// explore: at each state it tries seed transitions in heuristic order,
// computes the stubborn set of each candidate, and explores only the
// enabled part (the ample set) of the first candidate that passes the
// reduction and visibility checks.
type Expander struct {
	a         *Analysis
	seedOrder []int
	// BestSeed makes the expander evaluate every enabled seed and keep
	// the smallest valid ample set, instead of the first valid one in
	// heuristic order. More time per state, sometimes fewer states.
	//
	// A note on a design alternative we rejected: a closure that applies
	// enabling-set reasoning only to disabled members (leaving an enabled
	// member's feeders out) looks attractive and reduces much more, but
	// it is unsound for quorum transitions — a feeder can create *new*
	// quorum choices for an already-enabled transition, and dropping it
	// loses those behaviours including deadlock states. The property
	// tests in this package demonstrate the unsoundness on generated
	// protocols, which is why no such mode is offered.
	BestSeed bool
	// DisableNET replaces the missing-sender necessary-enabling sets with
	// all feeders — the paper's plain-LPOR configuration (its appendix
	// distinguishes LPOR from LPOR-NET via the fw.spor flag). Sound, less
	// reductive; exists for the ablation benches.
	DisableNET bool
	// DisableUniqueness ignores UniquePerSender annotations, treating
	// every feeder as able to grow an enabled quorum transition's event
	// set. Sound, less reductive; exists for the ablation benches.
	DisableUniqueness bool

	// dropGrowthFeeders exists only so the tests can demonstrate the
	// unsoundness described above; production code never sets it.
	dropGrowthFeeders bool

	// scratch caches the per-call working memory of Expand: engines call
	// Expand concurrently, so each call takes one of its own. Unlike a
	// sync.Pool, the cache survives garbage collection, which keeps
	// allocation counts repeatable between runs; it holds at most as many
	// scratches as there were concurrent calls.
	mu      sync.Mutex
	scratch []*scratch
}

var _ explore.Expander = (*Expander)(nil)

// NewExpander builds a static-POR expander for p. Seeds are ordered by
// decreasing Transition.Priority (the paper's "opposite transaction"
// heuristic, §V-B), ties broken by transition index.
func NewExpander(p *core.Protocol) (*Expander, error) {
	a, err := NewAnalysis(p)
	if err != nil {
		return nil, err
	}
	return newExpander(a), nil
}

// NewExpanderFromAnalysis reuses a precomputed analysis.
func NewExpanderFromAnalysis(a *Analysis) *Expander { return newExpander(a) }

func newExpander(a *Analysis) *Expander {
	order := make([]int, len(a.p.Transitions))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		tx, ty := a.p.Transitions[order[x]], a.p.Transitions[order[y]]
		if tx.Priority != ty.Priority {
			return tx.Priority > ty.Priority
		}
		return order[x] < order[y]
	})
	return &Expander{a: a, seedOrder: order}
}

// Analysis exposes the underlying static analysis (diagnostics, tests).
func (e *Expander) Analysis() *Analysis { return e.a }

// Expand implements explore.Expander. The ignoring proviso (C3) is
// enforced by the engines themselves — DFS re-expands when a reduced
// expansion would close a cycle on its stack, the BFS engines when a
// reduced expansion discovers no state that was unvisited at the start of
// the node's level; Expand enforces C1 (stubbornness) and C2 (a reduced
// ample set contains no visible transition).
func (e *Expander) Expand(s *core.State, enabled []core.Event, _ explore.Proviso) []core.Event {
	if len(enabled) <= 1 {
		return enabled
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	clear(sc.enabled)
	clear(sc.known)
	distinct := 0
	for _, ev := range enabled {
		if idx := ev.T.Index(); !hasBit(sc.enabled, idx) {
			setBit(sc.enabled, idx)
			distinct++
		}
	}
	if distinct <= 1 {
		// A single (possibly non-deterministic) transition: all its
		// events must be executed anyway (Figure 4(b)).
		return enabled
	}

	cfg := closureConfig{
		disableNET:        e.DisableNET,
		disableUniqueness: e.DisableUniqueness,
		dropGrowthFeeders: e.dropGrowthFeeders,
	}
	found := false
	bestSize := distinct
	for _, seed := range e.seedOrder {
		if !hasBit(sc.enabled, seed) {
			continue
		}
		e.a.stubborn(seed, s, sc, cfg)
		size, visible := e.ampleInfo(sc)
		if size >= bestSize || visible {
			continue
		}
		copy(sc.best, sc.inSet)
		found = true
		if !e.BestSeed {
			break
		}
		bestSize = size
	}
	if !found {
		return enabled
	}
	out := make([]core.Event, 0, len(enabled))
	for _, ev := range enabled {
		if hasBit(sc.best, ev.T.Index()) {
			out = append(out, ev)
		}
	}
	return out
}

func (e *Expander) getScratch() *scratch {
	e.mu.Lock()
	n := len(e.scratch)
	if n == 0 {
		e.mu.Unlock()
		return newScratch(e.a)
	}
	sc := e.scratch[n-1]
	e.scratch = e.scratch[:n-1]
	e.mu.Unlock()
	return sc
}

func (e *Expander) putScratch(sc *scratch) {
	e.mu.Lock()
	e.scratch = append(e.scratch, sc)
	e.mu.Unlock()
}

// ampleInfo returns the number of distinct enabled transitions in the
// stubborn set sc.inSet and whether any of them is visible.
func (e *Expander) ampleInfo(sc *scratch) (size int, visible bool) {
	for w, in := range sc.inSet {
		ample := in & sc.enabled[w]
		size += bits.OnesCount64(ample)
		visible = visible || ample&e.a.visible[w] != 0
	}
	return size, visible
}
