package explore

import (
	"math"
	"sync"
	"sync/atomic"

	"mpbasset/internal/core"
)

// traceFrom walks parent links back to the root and returns the forward
// counterexample path. A nil parents map (trace tracking disabled) yields
// nil.
func traceFrom(parents map[string]parentLink, key string) []Step {
	if parents == nil {
		return nil
	}
	var rev []Step
	for key != "" {
		pl, ok := parents[key]
		if !ok {
			break
		}
		rev = append(rev, Step{Event: pl.ev, StateKey: key})
		key = pl.parent
	}
	steps := make([]Step, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return steps
}

// pNode is one frontier entry of the parallel search.
type pNode struct {
	st  *core.State
	key string
}

// pSucc is one successor computed by a worker: the executed event, the
// reached state and its canonical key, whether this instance won the
// visited-set insertion race, and — for the winner only — the state's
// invariant-check result.
type pSucc struct {
	st     *core.State
	key    string
	ev     core.Event
	wasNew bool
	verr   error
}

// pOutcome is the expansion record of one frontier node, written by exactly
// one worker and read only after the level's WaitGroup barrier.
// provisoFull marks a node whose reduced expansion the queue proviso
// promoted to a full one after the barrier.
type pOutcome struct {
	processed   bool // false when a deadline stop dropped the node
	deadlock    bool
	reduced     bool
	provisoFull bool
	succs       []pSucc
}

// claimSpan is one worker's remaining range [next, end) of the frontier,
// packed next<<32|end into a single atomic word so chunk claims and steals
// are lone CAS operations. The trailing padding keeps adjacent workers'
// spans on separate cache lines.
type claimSpan struct {
	v atomic.Uint64
	_ [56]byte
}

func packSpan(next, end int) uint64 { return uint64(next)<<32 | uint64(end) }

func (s *claimSpan) load() (next, end int) {
	v := s.v.Load()
	return int(v >> 32), int(v & math.MaxUint32)
}

// claim takes up to chunk nodes from the front of the span.
func (s *claimSpan) claim(chunk int) (lo, hi int, ok bool) {
	for {
		v := s.v.Load()
		next, end := int(v>>32), int(v&math.MaxUint32)
		if next >= end {
			return 0, 0, false
		}
		hi = next + chunk
		if hi > end {
			hi = end
		}
		if s.v.CompareAndSwap(v, packSpan(hi, end)) {
			return next, hi, true
		}
	}
}

// stealHalf takes the upper half (rounded up) of the span, leaving the
// lower half to the owner. A one-node span is taken whole.
func (s *claimSpan) stealHalf() (lo, hi int, ok bool) {
	for {
		v := s.v.Load()
		next, end := int(v>>32), int(v&math.MaxUint32)
		if next >= end {
			return 0, 0, false
		}
		mid := next + (end-next)/2
		if s.v.CompareAndSwap(v, packSpan(next, mid)) {
			return mid, end, true
		}
	}
}

// ParallelBFS runs the stateful breadth-first search of BFS with a worker
// pool: each frontier (BFS level) is expanded by Options.Workers goroutines
// (default runtime.GOMAXPROCS(0)) sharing a concurrent visited-state store
// (a ShardedStore unless Options.Store supplies one; other stores are
// serialized behind a mutex). Workers do the expensive, order-independent
// work — Enabled, Expand, Execute, canonicalization, visited-set insertion
// and invariant checks — while a deterministic sequential merge replays the
// level in frontier order to commit statistics, parent links and verdicts.
//
// Scheduling: the frontier is partitioned into per-worker contiguous
// spans; workers claim chunks of their own span (Options.ChunkSize,
// adaptive by default) and, when their span drains, steal the upper half
// of the most-loaded worker's remaining span — so a few expensive nodes
// cannot leave the rest of the pool idle. Visited-set inserts are
// buffered per worker (Options.BatchSize) and flushed through the store's
// batched path (BatchStore.SeenBatch), taking each stripe lock once per
// batch instead of once per successor.
//
// Determinism: because the merge commits results in the exact order the
// sequential engine would have produced them, ParallelBFS returns
// bit-identical Verdict, Stats (except Duration) and Trace shape to BFS for
// any worker count, chunk size and batch size, including runs stopped by
// MaxStates — with one caveat: under a canonicalizing Options.Canon the
// Violation error value may be reported by any member of the violating
// state's symmetry orbit. Only MaxDuration-limited runs are inherently
// nondeterministic (for them the partially expanded frontier is merged and
// the result marked limited). When a level is cut short by a violation or
// MaxStates, states already inserted by other workers stay in the store
// but are not reported, so the store may transiently exceed MaxStates by
// at most one frontier's successors.
//
// Soundness requires every hook to be safe for concurrent read-only use:
// the protocol's Enabled/Execute/CheckInvariant, the Canon function and the
// Expander must not mutate shared state (true of core.Protocol, package
// symmetry's canonicalizers and package por's expander, which only read
// their precomputed analyses). Like sequential BFS, the engine enforces
// the queue variant of the ignoring proviso (C3), so combining it with a
// reducing expander is sound on cyclic state graphs too: after each
// level's barrier, any reduced expansion whose successors were all visited
// before the level began is promoted to a full expansion
// (Stats.ProvisoExpansions). The proviso is evaluated against the
// visited-set snapshot committed at level start — a successor is "already
// visited" exactly when no phase-one insert of its key won — never against
// the live concurrent store, so the decision is independent of worker
// interleaving and identical to the sequential engine's.
func ParallelBFS(p *core.Protocol, opts Options) (result *Result, err error) {
	init, err := p.InitialState()
	if err != nil {
		return nil, err
	}
	var (
		res     Result
		store   = opts.concurrentStore()
		canon   = opts.canon()
		exp     = opts.expander()
		lim     = newLimiter(opts)
		limited bool
	)
	defer func() {
		res.Stats.Duration = lim.elapsed()
		captureStoreStats(store, &res.Stats)
		if serr := storeErr(store); serr != nil && err == nil {
			result, err = nil, serr
		}
	}()

	var parents map[string]parentLink
	if opts.TrackTrace {
		parents = make(map[string]parentLink)
	}

	// The queue proviso normally needs no membership probe here (the
	// level-start snapshot is derived from insert outcomes), but the
	// sequential engine does need one and, on a caller-supplied store
	// without Has, degrades by promoting every reduced expansion. Mirror
	// that degradation so the bit-identical guarantee holds for any store.
	conservativeProviso := false
	if opts.Store != nil {
		_, hasProbe := opts.Store.(HasStore)
		conservativeProviso = !hasProbe
	}

	ikey := canon(init)
	store.Seen(ikey)
	res.Stats.States = 1
	if verr := p.CheckInvariant(init); verr != nil {
		res.Verdict = VerdictViolated
		res.Violation = verr
		return &res, nil
	}

	frontier := []pNode{{st: init, key: ikey}}
	var stop atomic.Bool // deadline passed or a worker failed

	// expandNode computes one frontier node's successors into out: the
	// expander-chosen events are executed and canonicalized, but
	// visited-set membership (wasNew) is filled in by the scheduler's
	// insert strategy (batched or per-key).
	expandNode := func(n pNode, out *pOutcome) error {
		enabled := p.Enabled(n.st)
		if len(enabled) == 0 {
			out.deadlock = true
			out.processed = true
			return nil
		}
		chosen := exp.Expand(n.st, enabled, noProviso{})
		out.reduced = len(chosen) < len(enabled)
		out.succs = make([]pSucc, len(chosen))
		for k, ev := range chosen {
			ns, err := p.Execute(n.st, ev)
			if err != nil {
				return err
			}
			out.succs[k] = pSucc{st: ns, key: canon(ns), ev: ev}
		}
		out.processed = true
		return nil
	}

	for depth := 0; len(frontier) > 0; depth++ {
		if depth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = depth
		}
		if lim.depthExceeded(depth) {
			limited = true
			break
		}

		// Parallel phase: expand every frontier node into its disjoint
		// outcome slot.
		outcomes := make([]pOutcome, len(frontier))
		workers := opts.workers()
		if workers > len(frontier) {
			workers = len(frontier)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		wg.Add(workers)

		spans := make([]claimSpan, workers)
		for w := range spans {
			spans[w].v.Store(packSpan(w*len(frontier)/workers, (w+1)*len(frontier)/workers))
		}
		chunk := opts.chunkSize(len(frontier), workers)
		batch := opts.batchSize()
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				var (
					pendKeys  = make([]string, 0, batch)
					pendSuccs = make([]*pSucc, 0, batch)
					processed int
				)
				flush := func() {
					if len(pendKeys) == 0 {
						return
					}
					for k, dup := range seenBatch(store, pendKeys) {
						if !dup {
							sc := pendSuccs[k]
							sc.wasNew = true
							sc.verr = p.CheckInvariant(sc.st)
						}
					}
					pendKeys = pendKeys[:0]
					pendSuccs = pendSuccs[:0]
				}
				// The deferred flush keeps the invariant "processed
				// outcome ⇒ final wasNew/verr" on every exit path.
				defer flush()
				process := func(lo, hi int) bool {
					for i := lo; i < hi; i++ {
						if stop.Load() {
							return false
						}
						processed++
						if processed&31 == 0 && lim.deadlinePassed() {
							stop.Store(true)
							return false
						}
						if err := expandNode(frontier[i], &outcomes[i]); err != nil {
							errs[w] = err
							stop.Store(true)
							return false
						}
						out := &outcomes[i]
						for j := range out.succs {
							pendKeys = append(pendKeys, out.succs[j].key)
							pendSuccs = append(pendSuccs, &out.succs[j])
							if len(pendKeys) >= batch {
								flush()
							}
						}
					}
					return true
				}
				for {
					lo, hi, ok := spans[w].claim(chunk)
					if !ok {
						// Own span drained: steal the upper half of the
						// most-loaded span and make it the new own span
						// (so other idle workers can steal from it in
						// turn). No victim with work left means the
						// level is done claiming.
						victim, best := -1, 0
						for v := range spans {
							if v == w {
								continue
							}
							if next, end := spans[v].load(); end-next > best {
								best, victim = end-next, v
							}
						}
						if victim < 0 {
							return
						}
						slo, shi, stolen := spans[victim].stealHalf()
						if !stolen {
							continue // lost the race; rescan
						}
						spans[w].v.Store(packSpan(slo, shi))
						continue
					}
					if !process(lo, hi) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, werr := range errs {
			if werr != nil {
				return nil, werr
			}
		}

		// Queue proviso (C3): a reduced expansion that rediscovered only
		// states visited before this level began would defer its remaining
		// events forever around a cycle; promote it to a full expansion.
		// "Visited before the level began" is derived from the phase-one
		// insert outcomes — a key is outside the level-start snapshot iff
		// some successor instance won its insert (wasNew) — so the verdict
		// is order-independent and bit-identical to sequential BFS for any
		// worker count and insert path. Promoted nodes are
		// re-expanded sequentially in frontier order: their phase-one
		// successors were all duplicates, so re-inserting cannot disturb
		// other outcomes, and the deferred events' states must be committed
		// in deterministic order anyway.
		anyReduced := false
		for i := range outcomes {
			if outcomes[i].processed && outcomes[i].reduced {
				anyReduced = true
				break
			}
		}
		if anyReduced {
			var fresh map[string]struct{}
			if !conservativeProviso {
				fresh = make(map[string]struct{})
				for i := range outcomes {
					if !outcomes[i].processed {
						continue
					}
					for j := range outcomes[i].succs {
						if sc := &outcomes[i].succs[j]; sc.wasNew {
							fresh[sc.key] = struct{}{}
						}
					}
				}
			}
			for i := range outcomes {
				out := &outcomes[i]
				if !out.processed || !out.reduced {
					continue
				}
				// conservativeProviso mirrors the sequential engine's
				// degradation for stores without a Has probe: promote
				// every reduced expansion (see bfsProviso.Ignoring),
				// keeping the two engines bit-identical there too.
				ignoring := true
				if !conservativeProviso {
					for j := range out.succs {
						if _, ok := fresh[out.succs[j].key]; ok {
							ignoring = false
							break
						}
					}
				}
				if !ignoring {
					continue
				}
				out.reduced = false
				out.provisoFull = true
				enabled := p.Enabled(frontier[i].st)
				out.succs = make([]pSucc, len(enabled))
				for k, ev := range enabled {
					ns, err := p.Execute(frontier[i].st, ev)
					if err != nil {
						return nil, err
					}
					sc := &out.succs[k]
					*sc = pSucc{st: ns, key: canon(ns), ev: ev}
					if !store.Seen(sc.key) {
						sc.wasNew = true
						sc.verr = p.CheckInvariant(sc.st)
					}
				}
			}
		}

		// Deterministic merge: commit the level in frontier order, exactly
		// as the sequential engine would have. newVerr maps each key first
		// inserted this level to its invariant result; entries are deleted
		// as the in-order walk claims them, so the discovering parent (and
		// the violating successor, if any) is the first occurrence in
		// sequential order regardless of which worker won the insert race.
		newVerr := make(map[string]error)
		for i := range outcomes {
			if !outcomes[i].processed {
				continue
			}
			for j := range outcomes[i].succs {
				if sc := &outcomes[i].succs[j]; sc.wasNew {
					newVerr[sc.key] = sc.verr
				}
			}
		}
		nextFrontier := make([]pNode, 0, len(newVerr))
	merge:
		for i := range outcomes {
			out := &outcomes[i]
			if !out.processed {
				continue
			}
			if out.deadlock {
				res.Stats.Deadlocks++
				continue
			}
			if out.reduced {
				res.Stats.ReducedExpansions++
			} else {
				res.Stats.FullExpansions++
				if out.provisoFull {
					res.Stats.ProvisoExpansions++
				}
			}
			for j := range out.succs {
				sc := &out.succs[j]
				res.Stats.Events++
				verr, isNew := newVerr[sc.key]
				if !isNew {
					res.Stats.Revisits++
					continue
				}
				delete(newVerr, sc.key)
				res.Stats.States++
				if parents != nil {
					parents[sc.key] = parentLink{parent: frontier[i].key, ev: sc.ev}
				}
				if verr != nil {
					res.Verdict = VerdictViolated
					res.Violation = verr
					res.Trace = traceFrom(parents, sc.key)
					return &res, nil
				}
				if lim.statesExceeded(res.Stats.States) || lim.timeExceeded() {
					limited = true
					break merge
				}
				nextFrontier = append(nextFrontier, pNode{st: sc.st, key: sc.key})
			}
		}
		if stop.Load() {
			limited = true
		}
		if limited {
			break
		}
		frontier = nextFrontier
	}

	if limited {
		res.Verdict = VerdictLimit
	} else {
		res.Verdict = VerdictVerified
	}
	return &res, nil
}
