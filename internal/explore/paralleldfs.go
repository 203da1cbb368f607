package explore

import (
	"sync"
	"sync/atomic"

	"mpbasset/internal/core"
	"mpbasset/internal/spec"
)

// pdSucc is one successor of a speculatively expanded state: the executed
// event, the reached state and its canonical key, plus — when a speculator
// already ran the invariant on it — the memoized check result.
type pdSucc struct {
	ev      core.Event
	st      *core.State
	key     string
	verr    error
	checked bool
}

// pdRecord is the expansion record of one state: everything the commit walk
// needs to replay the state's expansion exactly as sequential DFS would
// compute it. Records are pure functions of the state (Enabled, Expand,
// Execute and canonicalization are deterministic and read-only), which is
// what makes them safe to precompute out of order.
type pdRecord struct {
	// src is the state the record was built from. The proviso promotion
	// re-executes the full enabled set against it, never against another
	// instance of the same canonical key, so a record stays internally
	// consistent even under a canonicalizing Canon (symmetry orbits).
	src      *core.State
	deadlock bool
	reduced  bool
	// enabled is the full enabled-event set, retained only for reduced
	// expansions so the stack proviso can promote them without recomputing
	// Enabled.
	enabled []core.Event
	succs   []pdSucc
	// err is a deferred Execute failure; it is surfaced when (and only
	// when) the commit walk actually expands the state, exactly where
	// sequential DFS would have failed.
	err error
}

// pdBuild computes a state's expansion record: enabled events, the
// expander's chosen subset, and the executed successors. When withInv is
// set (speculative builds), the invariant is pre-checked on successors the
// probe does not already report as visited; the commit walk checks the rest
// lazily, like sequential DFS.
func pdBuild(p *core.Protocol, s *core.State, exp Expander, canon func(*core.State) string, prov Proviso, withInv bool, probe func(string) bool) *pdRecord {
	rec := &pdRecord{src: s}
	enabled := p.Enabled(s)
	if len(enabled) == 0 {
		rec.deadlock = true
		return rec
	}
	chosen := exp.Expand(s, enabled, prov)
	rec.reduced = len(chosen) < len(enabled)
	if rec.reduced {
		rec.enabled = enabled
	}
	succs, err := pdExecAll(p, s, chosen, canon)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.succs = succs
	if withInv {
		for i := range rec.succs {
			sc := &rec.succs[i]
			if probe != nil && probe(sc.key) {
				continue // already committed: only a revisit can follow
			}
			sc.verr = p.CheckInvariant(sc.st)
			sc.checked = true
		}
	}
	return rec
}

// pdExecAll executes events against s and canonicalizes the results.
func pdExecAll(p *core.Protocol, s *core.State, events []core.Event, canon func(*core.State) string) ([]pdSucc, error) {
	succs := make([]pdSucc, 0, len(events))
	for _, ev := range events {
		ns, err := p.Execute(s, ev)
		if err != nil {
			return nil, err
		}
		succs = append(succs, pdSucc{ev: ev, st: ns, key: canon(ns)})
	}
	return succs, nil
}

// pdSuccKeys collects the canonical keys of succs into buf.
func pdSuccKeys(buf []string, succs []pdSucc) []string {
	buf = buf[:0]
	for i := range succs {
		buf = append(buf, succs[i].key)
	}
	return buf
}

// pdTarget is one steal target: an unexplored sibling still pending on the
// commit stack, i.e. the root of a subtree sequential DFS has not entered
// yet. The memo table and steal queue themselves are the generic
// spec.Memo/spec.Queue, shared with ParallelNDFS.
type pdTarget struct {
	st  *core.State
	key string
}

// pdFrame is one frame of the commit stack (the ParallelDFS analogue of
// dfsFrame).
type pdFrame struct {
	key   string
	via   core.Event
	succs []pdSucc
	next  int
}

// ParallelDFS runs the stateful depth-first search of DFS with a worker
// pool: Options.Workers speculative workers (default runtime.GOMAXPROCS(0))
// steal unexplored sibling subtrees from the deep end of the search stack
// and expand them ahead of time, while a single commit walk replays the
// exact sequential DFS order — so verdicts, statistics and counterexample
// traces are bit-identical to DFS for any worker count.
//
// Work sharing: whenever the commit walk pushes a frame, the frame's
// pending siblings — subtree roots the walk has not entered yet — are
// published as steal targets, deepest frame first. An idle worker pops a
// target and explores its subtree depth-first for up to Options.StealDepth
// events below the stolen root (bounded batch per steal), memoizing one
// expansion record per state: enabled events, the expander's chosen subset,
// executed successors and pre-checked invariants. Records are pure
// functions of the state, so they can be computed in any order by any
// worker. Speculation probes the visited store (HasStore, non-mutating) to
// skip states the walk already committed; the probe is only ever a hint —
// a stale answer wastes work, never changes results.
//
// Deterministic commit: the walk is sequential DFS verbatim — same stack,
// same visit order, same limiter checks — except that expanding a state
// first consults the memo table and only computes inline on a miss. Because
// a record equals what the inline computation would produce, the committed
// Verdict, Stats (except Duration and the spill counters) and Trace are
// bit-identical to DFS for any worker count, on any store. Under a
// canonicalizing Options.Canon the same caveat as ParallelBFS applies: the
// Violation error value (and trace event labels) may come from any member
// of a state's symmetry orbit, since a record may have been built from a
// different orbit representative.
//
// Proviso: the stack variant of the ignoring proviso (C3) stays entirely
// inside the commit walk, whose stack IS the sequential search stack:
// Proviso.OnStack and Ignoring are answered from it alone, never from
// speculative state. A stolen subtree's root remains pinned on that stack —
// it is a pending sibling of a live frame until its turn commits — so
// reduced expansions are promoted exactly when sequential DFS would promote
// them (Stats.ProvisoExpansions). Speculators hand the expander an inert
// proviso, which is sound because an Expander's chosen set must not depend
// on the hook (see Proviso); promotion re-executes the full enabled set
// from the record's own source state during commit.
//
// Soundness requires the same read-only contract as ParallelBFS: the
// protocol's Enabled/Execute/CheckInvariant, the Canon function and the
// Expander must be safe for concurrent use and must not mutate shared
// state. The store must additionally tolerate concurrent Has probes during
// Seen inserts; Options.concurrentStore guarantees that by wrapping
// non-concurrent stores behind a mutex.
func ParallelDFS(p *core.Protocol, opts Options) (result *Result, err error) {
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
		stack   []pdFrame
		sinfo   = &dfsStack{onStack: make(map[string]bool)}
		limited bool
		keyBuf  []string
	)
	defer func() {
		res.Stats.Duration = lim.elapsed()
		captureStoreStats(store, &res.Stats)
		if serr := storeErr(store); serr != nil && err == nil {
			result, err = nil, serr
		}
	}()

	ikey := canon(init)
	store.Seen(ikey)
	res.Stats.States = 1
	if verr := p.CheckInvariant(init); verr != nil {
		res.Verdict = VerdictViolated
		res.Violation = verr
		return &res, nil
	}

	// Speculation plumbing: the memo table, the steal queue, and a
	// non-mutating store probe (nil when the store cannot answer — the
	// speculators then dedupe through the memo table alone).
	var (
		memo  spec.Memo[pdRecord]
		queue = spec.NewQueue[pdTarget]()
		stop  atomic.Bool
		wg    sync.WaitGroup
		probe func(string) bool
	)
	if hs, ok := store.(HasStore); ok {
		probe = hs.Has
	}
	depthBudget := opts.stealDepth()
	workers := opts.workers()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			type specNode struct {
				st    *core.State
				key   string
				depth int
			}
			nodes := make([]specNode, 0, 64)
			for {
				tgt, ok := queue.Pop()
				if !ok {
					return
				}
				nodes = append(nodes[:0], specNode{st: tgt.st, key: tgt.key})
				budget := spec.StealBudget
				for len(nodes) > 0 && budget > 0 && !stop.Load() && !memo.Full() {
					n := nodes[len(nodes)-1]
					nodes = nodes[:len(nodes)-1]
					if memo.Contains(n.key) || (probe != nil && probe(n.key)) {
						continue
					}
					rec := pdBuild(p, n.st, exp, canon, noProviso{}, true, probe)
					switch memo.Put(n.key, rec) {
					case spec.Stored:
						// fresh entry: fall through to expand it below
					case spec.Dup:
						continue
					case spec.Full:
						nodes = nodes[:0]
						continue
					}
					budget--
					if rec.err != nil || rec.deadlock || n.depth+1 > depthBudget {
						continue
					}
					for i := len(rec.succs) - 1; i >= 0; i-- {
						sc := &rec.succs[i]
						nodes = append(nodes, specNode{st: sc.st, key: sc.key, depth: n.depth + 1})
					}
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		queue.Close()
		wg.Wait()
	}()

	// expand replays one state's expansion in commit order: memoized record
	// when a speculator got there first, inline computation otherwise, then
	// the stack proviso and the expansion statistics — all exactly as
	// sequential DFS computes them.
	expand := func(s *core.State, key string) ([]pdSucc, error) {
		rec := memo.Take(key)
		if rec == nil {
			rec = pdBuild(p, s, exp, canon, sinfo, false, nil)
		}
		if rec.err != nil {
			return nil, rec.err
		}
		if rec.deadlock {
			res.Stats.Deadlocks++
			return nil, nil
		}
		succs := rec.succs
		reduced := rec.reduced
		if reduced {
			keyBuf = pdSuccKeys(keyBuf, succs)
			if sinfo.Ignoring(keyBuf) {
				// Stack proviso (C3): a reduced expansion must not close a
				// cycle on the stack, or the deferred events could be
				// ignored forever. Re-execute from the record's own source
				// state, which stays orbit-consistent under symmetry.
				reduced = false
				res.Stats.ProvisoExpansions++
				full, err := pdExecAll(p, rec.src, rec.enabled, canon)
				if err != nil {
					return nil, err
				}
				succs = full
			}
		}
		if reduced {
			res.Stats.ReducedExpansions++
		} else {
			res.Stats.FullExpansions++
		}
		return succs, nil
	}

	push := func(s *core.State, key string, via core.Event) error {
		sinfo.onStack[key] = true
		succs, err := expand(s, key)
		if err != nil {
			return err
		}
		stack = append(stack, pdFrame{key: key, via: via, succs: succs})
		if len(succs) > 1 {
			// Publish the pending siblings (everything after the child the
			// walk enters next) as steal targets, in reverse sibling order
			// so the earliest sibling sits at the queue's deep end.
			tgts := make([]pdTarget, 0, len(succs)-1)
			for i := len(succs) - 1; i >= 1; i-- {
				tgts = append(tgts, pdTarget{st: succs[i].st, key: succs[i].key})
			}
			queue.Publish(tgts...)
		}
		return nil
	}

	trace := func(last *pdSucc) []Step {
		var steps []Step
		for _, f := range stack[1:] {
			steps = append(steps, Step{Event: f.via, StateKey: f.key})
		}
		if last != nil {
			steps = append(steps, Step{Event: last.ev, StateKey: last.key})
		}
		return steps
	}

	if err := push(init, ikey, core.Event{}); err != nil {
		return nil, err
	}

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succs) {
			delete(sinfo.onStack, f.key)
			stack = stack[:len(stack)-1]
			continue
		}
		sc := f.succs[f.next]
		f.next++
		res.Stats.Events++
		if store.Seen(sc.key) {
			res.Stats.Revisits++
			continue
		}
		res.Stats.States++
		// sc sits one event below the frame on top of the stack, i.e. at
		// depth len(stack) counting the root as 0 — the same convention
		// DFS and the BFS engines use for Stats.MaxDepth.
		if len(stack) > res.Stats.MaxDepth {
			res.Stats.MaxDepth = len(stack)
		}
		verr := sc.verr
		if !sc.checked {
			verr = p.CheckInvariant(sc.st)
		}
		if verr != nil {
			res.Verdict = VerdictViolated
			res.Violation = verr
			res.Trace = trace(&sc)
			return &res, nil
		}
		if lim.statesExceeded(res.Stats.States) || lim.timeExceeded() {
			limited = true
			break
		}
		if lim.depthExceeded(len(stack)) {
			limited = true
			continue
		}
		if err := push(sc.st, sc.key, sc.ev); err != nil {
			return nil, err
		}
	}

	if limited {
		res.Verdict = VerdictLimit
	} else {
		res.Verdict = VerdictVerified
	}
	return &res, nil
}
