package dpor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/spec"
)

// ExploreParallel runs the DPOR-reduced stateless search with a worker
// pool, sleep sets enabled: Options.Workers speculative workers (0 or
// negative means runtime.GOMAXPROCS(0)) claim pending backtrack points —
// events the commit walk has scheduled at stack frames it has not returned
// to yet — and expand the subtrees below them ahead of time, while a single
// commit walk replays sequential DPOR verbatim. Verdicts, statistics
// (except the volatile Duration/speculation counters) and counterexample
// traces are bit-identical to Explore for any worker count.
//
// Work sharing: every backtrack point the walk schedules at a
// not-yet-finished frame — race-triggered points from updateRaces, and
// disabled-event points from backtrackDisabled — is published as a steal
// target. An idle worker pops the most recently published point, executes
// it against its (immutable) source state and explores up to
// Options.StealDepth events below it (bounded batch per steal), memoizing
// one expansion record per state: the enabled events and, per event, the
// executed successor, its invariant-check result and the message keys it
// sent. Records are pure functions of the state (see specRecord), so they
// can be computed in any order by any worker.
//
// Deterministic commit: the walk is sequential DPOR verbatim — same stack,
// same backtrack/sleep/vector-clock bookkeeping, same limit checks —
// except that pushing a state first consults the memo table and an
// execution whose frame holds a record reuses the memoized successor
// instead of re-executing. Because a record equals what the inline
// computation would produce, the committed Verdict, Stats and Trace are
// bit-identical to Explore. All path-dependent DPOR structure (clocks,
// races, backtrack and sleep sets) is re-derived by the walk itself, so
// speculation can never be stale in a way that changes results — a record
// is never wrong, only possibly missing.
//
// Soundness requires the same read-only contract as the other parallel
// engines: the protocol's Enabled/Execute/CheckInvariant must be safe for
// concurrent use and must not mutate shared state.
func ExploreParallel(p *core.Protocol, opts explore.Options) (*explore.Result, error) {
	return ExploreParallelWith(p, opts, Config{SleepSets: true})
}

// ExploreParallelWith is ExploreParallel with explicit engine
// configuration.
func ExploreParallelWith(p *core.Protocol, opts explore.Options, cfg Config) (*explore.Result, error) {
	a, err := analyze(p)
	if err != nil {
		return nil, err
	}
	e := &engine{p: p, a: a, opts: opts, cfg: cfg}

	var (
		memo       spec.Memo[specRecord]
		queue      = spec.NewQueue[specTarget]()
		stop       atomic.Bool
		wg         sync.WaitGroup
		specVisits atomic.Int64
	)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depthBudget := opts.StealDepth
	if depthBudget <= 0 {
		depthBudget = spec.DefaultStealDepth
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			speculate(p, &memo, queue, &stop, &specVisits, depthBudget)
		}()
	}

	e.memo = &memo
	e.publish = func(t specTarget) { queue.Publish(t) }
	res, runErr := e.run()
	stop.Store(true)
	queue.Close()
	wg.Wait()
	if res != nil {
		res.Stats.SpeculatedVisits = int(specVisits.Load())
		res.Stats.SpeculationHits = e.specHits
	}
	return res, runErr
}

// speculate is one worker's loop: pop a backtrack point, execute it, and
// memoize expansion records for the subtree below it, depth-first, until
// the per-steal budget, the depth bound, the memo capacity or shutdown
// stops it. An Execute failure on the stolen edge just drops the target —
// the walk surfaces the error itself if it ever commits that edge.
func speculate(p *core.Protocol, memo *spec.Memo[specRecord], queue *spec.Queue[specTarget], stop *atomic.Bool, visits *atomic.Int64, depthBudget int) {
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
		ns, err := p.Execute(tgt.src, tgt.ev)
		if err != nil {
			continue
		}
		nodes = append(nodes[:0], specNode{st: ns, key: ns.Key()})
		budget := spec.StealBudget
		for len(nodes) > 0 && budget > 0 && !stop.Load() && !memo.Full() {
			n := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			if memo.Contains(n.key) {
				continue
			}
			rec := specBuild(p, n.st)
			switch memo.Put(n.key, rec) {
			case spec.Stored:
				visits.Add(1)
			case spec.Dup:
				continue
			case spec.Full:
				nodes = nodes[:0]
				continue
			}
			budget--
			if n.depth+1 > depthBudget {
				continue
			}
			for i := len(rec.succs) - 1; i >= 0; i-- {
				sc := &rec.succs[i]
				if sc.err != nil || sc.verr != nil {
					continue
				}
				nodes = append(nodes, specNode{st: sc.st, key: sc.key, depth: n.depth + 1})
			}
		}
	}
}
