package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpbasset/internal/core"
	"mpbasset/internal/liveness"
	"mpbasset/internal/spec"
)

// redSuffix marks a product key as red-visited in the shared store; the
// NUL framing keeps red marks disjoint from blue marks and from every
// protocol state key, so one store (in-memory, sharded or spill) holds
// both colors of one search.
const redSuffix = "\x00r"

// nSucc is one successor edge of the Büchi product: the executed event
// (zero for the implicit stutter step of a deadlocked state), the reached
// protocol state with its canonical key, and the reached fairness-monitor
// copy with the resulting product key.
type nSucc struct {
	ev      core.Event
	st      *core.State
	skey    string // canonical protocol-state key (what traces record)
	copy    int    // fairness-monitor copy of the reached product state
	pkey    string // product key: liveness.ProductKey(skey, copy)
	stutter bool   // implicit self-loop step of a deadlocked state
}

// nRecord is the expansion record of one product state: everything the
// blue search needs to replay the expansion exactly as the sequential
// engine computes it. Like pdRecord, records are pure functions of the
// product state, which is what makes ParallelNDFS's out-of-order
// speculation sound.
type nRecord struct {
	// src is the state the record was built from; the proviso promotion
	// re-executes the full enabled set against it (orbit-consistent under
	// a canonicalizing Canon).
	src      *core.State
	copy     int
	deadlock bool
	reduced  bool
	// enabled is the full enabled-event set, retained only for reduced
	// expansions so the stack proviso can promote them without
	// recomputing Enabled.
	enabled []core.Event
	succs   []nSucc
	// err is a deferred Execute failure, surfaced when (and only when)
	// the blue walk actually expands the state.
	err error
}

// nBuild computes a product state's expansion record: the full enabled
// set, the expander's chosen subset, the executed successors with their
// fairness-monitor copies — and, for deadlocked states, the stutter
// self-loop successor.
func nBuild(p *core.Protocol, prop *liveness.Property, s *core.State, copy int, exp Expander, canon func(*core.State) string, prov Proviso) *nRecord {
	rec := &nRecord{src: s, copy: copy}
	accepting := copy == 0 && prop.Accept(s)
	enabled := p.Enabled(s)
	if len(enabled) == 0 {
		rec.deadlock = true
		ncopy := prop.Next(copy, p.N, accepting, -1, func(int) bool { return false })
		skey := canon(s)
		rec.succs = []nSucc{{st: s, skey: skey, copy: ncopy, pkey: liveness.ProductKey(skey, ncopy), stutter: true}}
		return rec
	}
	chosen := exp.Expand(s, enabled, prov)
	rec.reduced = len(chosen) < len(enabled)
	if rec.reduced {
		rec.enabled = enabled
	}
	succs, err := nExecAll(p, prop, s, copy, accepting, enabled, chosen, canon)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.succs = succs
	return rec
}

// nExecAll executes events against the product state (s, copy): each event
// is run through the protocol and through the fairness monitor. enabled is
// the full enabled set of s (the monitor reads enabledness from the source
// state); events is the subset actually executed.
func nExecAll(p *core.Protocol, prop *liveness.Property, s *core.State, copy int, accepting bool, enabled, events []core.Event, canon func(*core.State) string) ([]nSucc, error) {
	var mask []bool
	if prop.WeakFair {
		mask = liveness.EnabledProcs(p.N, enabled)
	}
	enabledProc := func(q int) bool { return mask[q] }
	succs := make([]nSucc, 0, len(events))
	for _, ev := range events {
		ns, err := p.Execute(s, ev)
		if err != nil {
			return nil, err
		}
		ncopy := prop.Next(copy, p.N, accepting, int(ev.T.Proc), enabledProc)
		skey := canon(ns)
		succs = append(succs, nSucc{ev: ev, st: ns, skey: skey, copy: ncopy, pkey: liveness.ProductKey(skey, ncopy)})
	}
	return succs, nil
}

// nSuccKeys collects the product keys of succs into buf.
func nSuccKeys(buf []string, succs []nSucc) []string {
	buf = buf[:0]
	for i := range succs {
		buf = append(buf, succs[i].pkey)
	}
	return buf
}

// nFrame is one frame of the blue (outer) search stack.
type nFrame struct {
	skey      string
	pkey      string
	copy      int
	via       core.Event
	stutter   bool // via is the implicit stutter step of a deadlocked state
	accepting bool
	succs     []nSucc
	next      int
}

// nTarget is one ParallelNDFS steal target: an unexplored pending sibling
// of a live blue frame.
type nTarget struct {
	st   *core.State
	copy int
	pkey string
}

// nSpec is ParallelNDFS's speculation hookup into the shared ndfs core; a
// nil nSpec runs the engine sequentially.
type nSpec struct {
	// take consumes the speculative expansion record for a product key.
	take func(pkey string) *nRecord
	// publish offers a new frame's pending siblings (succs[1:]) as steal
	// targets.
	publish func(succs []nSucc)
	// close stops the speculators and joins them; ndfs defers it so the
	// workers are gone before the engine's own deferred bookkeeping runs.
	close func()
}

// NDFS checks a Büchi liveness property (Options.Property) with the
// classic nested depth-first search: the blue (outer) DFS explores the
// product of the state graph with the property's fairness monitor, and at
// the post-order retreat from each accepting product state launches a red
// (inner) DFS that reports a violation iff it can close a cycle back onto
// the blue search stack — an accepting (and, with WeakFair, weakly fair)
// cycle. Deadlocked states carry an implicit stutter self-loop, so
// executions that halt in an accepting state are counterexamples too.
// Counterexamples are lassos: Result.Trace holds stem + cycle,
// Result.CycleLen/Stutter describe the cycle, and ReplayLasso re-validates
// the whole certificate.
//
// NDFS cooperates with reducing expanders exactly like DFS: the blue
// search enforces the stack ignoring proviso (C3) on the product, and the
// red search replays the blue search's post-proviso event choices (a
// per-state memo), so both sweeps traverse the identical reduced graph and
// static POR stays sound for cycle detection. With Property.WeakFair the
// expander is ignored and the full graph is explored: the fairness
// monitor observes every transition, so C2 admits no reduction.
//
// The search runs over any Store tier — in-memory, sharded or spill — by
// multiplexing blue and red visit marks into the one store under distinct
// key suffixes. The safety invariant is NOT checked; run a safety search
// separately.
func NDFS(p *core.Protocol, opts Options) (*Result, error) {
	if err := ndfsCheckOpts(opts); err != nil {
		return nil, err
	}
	return ndfs(p, opts, opts.store(), nil)
}

func ndfsCheckOpts(opts Options) error {
	if opts.Property == nil || opts.Property.Accept == nil {
		return fmt.Errorf("explore: the NDFS engines require Options.Property with an Accept predicate")
	}
	return nil
}

// ndfs is the engine core shared by NDFS and ParallelNDFS: the blue/red
// nested search, with speculative expansion records taken from spec when
// one is attached. The commit path is identical either way, so the two
// entry points produce bit-identical verdicts, statistics and lassos.
func ndfs(p *core.Protocol, opts Options, store Store, spec *nSpec) (result *Result, err error) {
	var (
		prop    = opts.Property
		res     Result
		canon   = opts.canon()
		exp     = opts.expander()
		lim     = newLimiter(opts)
		stack   []nFrame
		sinfo   = &dfsStack{onStack: make(map[string]bool)}
		limited bool
		timeUp  bool
		keyBuf  []string
	)
	if prop.WeakFair {
		// C2 under fairness: the monitor copy advances on every executed
		// event, so every transition is visible in the product and no
		// ample set smaller than the full enabled set is sound. Check the
		// full graph instead of silently unsound reduction.
		exp = FullExpander{}
	}
	_, full := exp.(FullExpander)
	reducing := !full
	// succMemo records the blue search's post-proviso event choice per
	// expanded product state, so the red search replays the identical
	// reduced graph (nil entries mark deadlocked states; the red sweep
	// synthesizes the same stutter step).
	var succMemo map[string][]core.Event
	if reducing {
		succMemo = make(map[string][]core.Event)
	}
	defer func() {
		res.Stats.Duration = lim.elapsed()
		captureStoreStats(store, &res.Stats)
		if serr := storeErr(store); serr != nil && err == nil {
			result, err = nil, serr
		}
	}()
	if spec != nil {
		// Runs first (LIFO): the speculators are joined before the stats
		// defer above reads the store.
		defer spec.close()
	}
	init, err := p.InitialState()
	if err != nil {
		return nil, err
	}

	// expand replays one product state's expansion in commit order:
	// memoized record when a speculator got there first, inline
	// computation otherwise, then the stack proviso and the expansion
	// statistics — deterministically in either case.
	expand := func(s *core.State, pkey string, copy int, accepting bool) ([]nSucc, error) {
		var rec *nRecord
		if spec != nil {
			rec = spec.take(pkey)
		}
		if rec == nil {
			rec = nBuild(p, prop, s, copy, exp, canon, sinfo)
		}
		if rec.err != nil {
			return nil, rec.err
		}
		if rec.deadlock {
			res.Stats.Deadlocks++
			if reducing {
				succMemo[pkey] = nil
			}
			return rec.succs, nil
		}
		succs := rec.succs
		reduced := rec.reduced
		if reduced {
			keyBuf = nSuccKeys(keyBuf, succs)
			if sinfo.Ignoring(keyBuf) {
				// Stack proviso (C3) on the product: a reduced expansion
				// must not close a cycle on the blue stack, or the
				// deferred events could be ignored forever around it.
				reduced = false
				res.Stats.ProvisoExpansions++
				promoted, err := nExecAll(p, prop, rec.src, rec.copy, accepting, rec.enabled, rec.enabled, canon)
				if err != nil {
					return nil, err
				}
				succs = promoted
			}
		}
		if reduced {
			res.Stats.ReducedExpansions++
		} else {
			res.Stats.FullExpansions++
		}
		if reducing {
			evs := make([]core.Event, len(succs))
			for i := range succs {
				evs[i] = succs[i].ev
			}
			succMemo[pkey] = evs
		}
		return succs, nil
	}

	push := func(sc nSucc) error {
		sinfo.onStack[sc.pkey] = true
		accepting := sc.copy == 0 && prop.Accept(sc.st)
		succs, err := expand(sc.st, sc.pkey, sc.copy, accepting)
		if err != nil {
			return err
		}
		stack = append(stack, nFrame{
			skey: sc.skey, pkey: sc.pkey, copy: sc.copy,
			via: sc.ev, stutter: sc.stutter, accepting: accepting, succs: succs,
		})
		if spec != nil && len(succs) > 1 {
			spec.publish(succs)
		}
		return nil
	}

	// redExpand recomputes a blue-visited product state's successors for
	// the red sweep. Reducing runs replay the blue search's memoized event
	// choice so red and blue traverse the same reduced graph; a missing
	// memo entry means the blue search never expanded the state (a depth
	// or state limit cut it) and the red sweep treats it as a leaf — the
	// run reports VerdictLimit in that case anyway.
	redExpand := func(s *core.State, skey, pkey string, copy int) ([]nSucc, error) {
		accepting := copy == 0 && prop.Accept(s)
		if reducing {
			evs, ok := succMemo[pkey]
			if !ok {
				return nil, nil
			}
			if len(evs) == 0 {
				ncopy := prop.Next(copy, p.N, accepting, -1, func(int) bool { return false })
				return []nSucc{{st: s, skey: skey, copy: ncopy, pkey: liveness.ProductKey(skey, ncopy), stutter: true}}, nil
			}
			return nExecAll(p, prop, s, copy, accepting, evs, evs, canon)
		}
		enabled := p.Enabled(s)
		if len(enabled) == 0 {
			ncopy := prop.Next(copy, p.N, accepting, -1, func(int) bool { return false })
			return []nSucc{{st: s, skey: skey, copy: ncopy, pkey: liveness.ProductKey(skey, ncopy), stutter: true}}, nil
		}
		return nExecAll(p, prop, s, copy, accepting, enabled, enabled, canon)
	}

	type redFrame struct {
		via   nSucc
		succs []nSucc
		next  int
	}
	// redSearch runs the nested (red) DFS from the accepting seed frame on
	// top of the blue stack. It starts from the seed's own (post-proviso)
	// successors and reports a hit when some red edge closes back onto the
	// blue stack: target →(stack)→ seed →(red path)→ target is an
	// accepting cycle. Red marks share the store under redSuffix; red
	// never un-marks, which is sound because red searches run in
	// post-order of accepting states (the classic nested-DFS argument).
	redSearch := func(seed *nFrame) (hitIdx int, redPath []nSucc, hit bool, rerr error) {
		rstack := []redFrame{{succs: seed.succs}}
		for len(rstack) > 0 {
			if lim.timeExceeded() {
				timeUp = true
				return
			}
			f := &rstack[len(rstack)-1]
			if f.next >= len(f.succs) {
				rstack = rstack[:len(rstack)-1]
				continue
			}
			sc := f.succs[f.next]
			f.next++
			res.Stats.Events++
			if sinfo.OnStack(sc.pkey) {
				for i := range stack {
					if stack[i].pkey == sc.pkey {
						hitIdx = i
						break
					}
				}
				for _, rf := range rstack[1:] {
					redPath = append(redPath, rf.via)
				}
				redPath = append(redPath, sc)
				hit = true
				return
			}
			if store.Seen(sc.pkey + redSuffix) {
				res.Stats.Revisits++
				continue
			}
			res.Stats.RedStates++
			succs, err := redExpand(sc.st, sc.skey, sc.pkey, sc.copy)
			if err != nil {
				rerr = err
				return
			}
			rstack = append(rstack, redFrame{via: sc, succs: succs})
		}
		return
	}

	// violation assembles the lasso result: the stem walks the blue stack
	// up to the cycle-closing target, the cycle walks the rest of the
	// stack and the red path back to the target. Stutter steps carry no
	// event and do not change the protocol state, so they are elided from
	// the trace; a cycle made of stutter steps alone is reported as the
	// deadlock self-loop (CycleLen 0, Stutter true).
	violation := func(hitIdx int, redPath []nSucc) {
		var steps []Step
		for _, fr := range stack[1 : hitIdx+1] {
			if fr.stutter {
				continue
			}
			steps = append(steps, Step{Event: fr.via, StateKey: fr.skey})
		}
		stemLen := len(steps)
		stutterCycle := false
		addCycleStep := func(ev core.Event, skey string, stutter bool) {
			if stutter {
				stutterCycle = true
				return
			}
			steps = append(steps, Step{Event: ev, StateKey: skey})
		}
		for _, fr := range stack[hitIdx+1:] {
			addCycleStep(fr.via, fr.skey, fr.stutter)
		}
		for _, sc := range redPath {
			addCycleStep(sc.ev, sc.skey, sc.stutter)
		}
		res.Verdict = VerdictViolated
		res.Trace = steps
		res.CycleLen = len(steps) - stemLen
		res.Stutter = stutterCycle
		cycle := fmt.Sprintf("%d-step accepting cycle", res.CycleLen)
		if stutterCycle {
			cycle = "deadlocked accepting state (stutter cycle)"
		}
		res.Violation = fmt.Errorf("liveness violation of %q: %d-step stem to a %s", prop.Name, stemLen, cycle)
	}

	ikey := canon(init)
	ipkey := liveness.ProductKey(ikey, 0)
	store.Seen(ipkey)
	res.Stats.States = 1
	if err := push(nSucc{st: init, skey: ikey, copy: 0, pkey: ipkey}); err != nil {
		return nil, err
	}

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succs) {
			if f.accepting {
				hitIdx, redPath, hit, rerr := redSearch(f)
				if rerr != nil {
					return nil, rerr
				}
				if hit {
					violation(hitIdx, redPath)
					return &res, nil
				}
				if timeUp {
					limited = true
					break
				}
			}
			delete(sinfo.onStack, f.pkey)
			stack = stack[:len(stack)-1]
			continue
		}
		sc := f.succs[f.next]
		f.next++
		res.Stats.Events++
		if store.Seen(sc.pkey) {
			res.Stats.Revisits++
			continue
		}
		res.Stats.States++
		// sc sits one event below the frame on top of the stack — the same
		// depth convention as the safety engines, counted on the product.
		if len(stack) > res.Stats.MaxDepth {
			res.Stats.MaxDepth = len(stack)
		}
		if lim.statesExceeded(res.Stats.States) || lim.timeExceeded() {
			limited = true
			break
		}
		if lim.depthExceeded(len(stack)) {
			limited = true
			continue
		}
		if err := push(sc); err != nil {
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

// ParallelNDFS runs NDFS with ParallelDFS's speculative-workers +
// sequential-commit-walk architecture: Options.Workers speculators
// (default runtime.GOMAXPROCS(0)) steal unexplored blue sibling subtrees
// from the deep end of the blue stack and precompute product expansion
// records, while the single blue/red commit walk replays the exact
// sequential NDFS order — verdicts, statistics (minus Duration and the
// spill counters) and lasso traces are bit-identical to NDFS for any
// worker count, on any store. The red sweep is untouched by speculation:
// it recomputes successors on the commit goroutine alone, so its marks and
// order are sequential by construction.
//
// The soundness contract matches ParallelDFS: Enabled/Execute, the Accept
// predicate, the Canon function and the Expander must be pure and safe for
// concurrent use, and the store must tolerate concurrent Has probes during
// Seen inserts (Options.concurrentStore wraps non-concurrent stores).
func ParallelNDFS(p *core.Protocol, opts Options) (*Result, error) {
	if err := ndfsCheckOpts(opts); err != nil {
		return nil, err
	}
	var (
		prop  = opts.Property
		store = opts.concurrentStore()
		canon = opts.canon()
		exp   = opts.expander()
		memo  spec.Memo[nRecord]
		queue = spec.NewQueue[nTarget]()
		stop  atomic.Bool
		wg    sync.WaitGroup
		probe func(string) bool
	)
	if prop.WeakFair {
		exp = FullExpander{} // same C2-under-fairness rule as the commit walk
	}
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
				copy  int
				pkey  string
				depth int
			}
			nodes := make([]specNode, 0, 64)
			for {
				tgt, ok := queue.Pop()
				if !ok {
					return
				}
				nodes = append(nodes[:0], specNode{st: tgt.st, copy: tgt.copy, pkey: tgt.pkey})
				budget := spec.StealBudget
				for len(nodes) > 0 && budget > 0 && !stop.Load() && !memo.Full() {
					n := nodes[len(nodes)-1]
					nodes = nodes[:len(nodes)-1]
					if memo.Contains(n.pkey) || (probe != nil && probe(n.pkey)) {
						continue
					}
					rec := nBuild(p, prop, n.st, n.copy, exp, canon, noProviso{})
					switch memo.Put(n.pkey, rec) {
					case spec.Stored:
						// fresh entry: fall through to expand it below
					case spec.Dup:
						continue
					case spec.Full:
						nodes = nodes[:0]
						continue
					}
					budget--
					if rec.err != nil || n.depth+1 > depthBudget {
						continue
					}
					for i := len(rec.succs) - 1; i >= 0; i-- {
						sc := &rec.succs[i]
						nodes = append(nodes, specNode{st: sc.st, copy: sc.copy, pkey: sc.pkey, depth: n.depth + 1})
					}
				}
			}
		}()
	}
	spec := &nSpec{
		take: memo.Take,
		publish: func(succs []nSucc) {
			// Pending siblings (everything after the child the walk enters
			// next), in reverse sibling order so the earliest sibling sits
			// at the queue's deep end.
			tgts := make([]nTarget, 0, len(succs)-1)
			for i := len(succs) - 1; i >= 1; i-- {
				sc := &succs[i]
				tgts = append(tgts, nTarget{st: sc.st, copy: sc.copy, pkey: sc.pkey})
			}
			queue.Publish(tgts...)
		},
		close: func() {
			stop.Store(true)
			queue.Close()
			wg.Wait()
		},
	}
	return ndfs(p, opts, store, spec)
}
