// Package mpbasset is a Go reproduction of the MP-Basset model checker
// from Bokor, Kinder, Serafini and Suri, "Efficient Model Checking of
// Fault-Tolerant Distributed Protocols" (DSN 2011): explicit-state model
// checking of message-passing protocols with quorum transitions, transition
// refinement (quorum-split and reply-split), static and dynamic
// partial-order reduction, and role-based symmetry reduction.
//
// The package is the high-level facade over the building blocks in
// internal/: define a protocol with core.Protocol (or use the bundled
// Paxos, Echo Multicast and regular-storage models under
// internal/protocols), then verify it:
//
//	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
//	...
//	res, err := mpbasset.Check(p, mpbasset.Options{Search: mpbasset.SearchSPOR})
//	fmt.Println(res.Verdict, res.Stats.States)
//
// Setting Options.Workers parallelizes the selected engine: the DFS
// searches (SearchSPOR, SearchUnreduced) run the speculative parallel DFS
// engine over a sharded concurrent visited-state store — workers steal
// unexplored sibling subtrees from the deep end of the search stack and
// expand them ahead of a commit walk that replays the exact sequential
// order — SearchBFS runs the frontier-parallel BFS engine with its
// deterministic per-level merge, and SearchDPOR runs the speculative
// parallel DPOR engine, whose workers claim pending backtrack points and
// precompute the subtrees below them while the commit walk replays
// sequential DPOR verbatim. Either way, verdicts, state counts and
// counterexamples are reproducible and identical to the corresponding
// sequential search for any worker count. Parallel search is sound for the
// reduced searches because the expanders and canonicalizers are
// stateless/read-only, and — like every stateful engine here — it enforces
// the ignoring proviso, so partial-order reduction stays sound on cyclic
// state graphs too: the DFS engines re-expand states whose reduced
// expansion would close a cycle on the search stack, the BFS engines
// re-expand states whose reduced expansion discovers nothing that was
// unvisited when their level began (see Result.Stats.ProvisoExpansions).
//
// Setting Options.StoreBudgetBytes bounds the visited set's memory
// footprint for beyond-RAM state spaces: the search runs over a two-tier
// spill store whose in-memory hot tier flushes sorted runs of 128-bit
// fingerprints to disk (Options.SpillDir) past the budget, again with
// verdicts, statistics and traces bit-identical to the in-memory stores;
// Result.Stats reports the spill activity.
//
// Setting Options.Property switches from safety to liveness checking: the
// DFS searches run nested depth-first search (blue/red, CVWY) over the
// Büchi product of the protocol and the property, reporting a
// counterexample lasso — a finite stem plus an accepting cycle, with runs
// that halt in an accepting deadlock counted via stutter extension — that
// Result.Trace records and explore.ReplayLasso revalidates. Properties are
// acceptance predicates over states (Eventually builds the common
// "goal is eventually reached" form); Property.WeakFair restricts
// counterexamples to weakly fair schedules. Reduction stays sound:
// properties declare which processes they read, transitions of those
// processes are marked visible (ample-set condition C2), and the same
// stack proviso that protects safety search protects the cycle detection.
// Liveness results are deterministic and bit-identical across worker
// counts and stores, exactly like safety results.
//
// Check is the module's one engine dispatcher and Options.Validate its one
// rule set: the command-line tools (cmd/mpcheck, and cmd/mpbench through
// internal/eval) only translate their flags into Options, so every entry
// point runs the same engines and refuses the same option combinations.
// See the examples/ directory for complete programs and cmd/mpcheck for
// the command-line interface.
package mpbasset

import (
	"fmt"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/por"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

// Re-exported core types, so that typical users only import this package
// plus a protocol package.
type (
	// Protocol is a message-passing protocol model (see internal/core).
	Protocol = core.Protocol
	// Transition is a guarded atomic event of one process.
	Transition = core.Transition
	// Message is an in-flight message.
	Message = core.Message
	// ProcessID identifies a process.
	ProcessID = core.ProcessID
	// Result is the outcome of a search.
	Result = explore.Result
	// Verdict classifies a search outcome.
	Verdict = explore.Verdict
	// SplitStrategy selects a transition-refinement strategy.
	SplitStrategy = refine.Strategy
	// Property is a Büchi liveness property: an acceptance predicate over
	// states, optionally under weak fairness (see internal/liveness).
	Property = liveness.Property
	// State is a global protocol state, as passed to property predicates.
	State = core.State
)

// Eventually builds the liveness property "the goal predicate is
// eventually reached": a counterexample is an execution that defers the
// goal forever. reads must list the processes the goal predicate inspects,
// so partial-order reduction stays sound for the property.
var Eventually = liveness.Eventually

// Search outcomes.
const (
	VerdictVerified = explore.VerdictVerified
	VerdictViolated = explore.VerdictViolated
	VerdictLimit    = explore.VerdictLimit
)

// Split strategies (paper §III: Table II's unsplit / reply-split /
// quorum-split / combined-split).
const (
	SplitNone     = refine.None
	SplitReply    = refine.Reply
	SplitQuorum   = refine.Quorum
	SplitCombined = refine.Combined
)

// Search selects a search engine.
type Search int

const (
	// SearchSPOR is stateful DFS with static partial-order reduction (the
	// paper's MP-LPOR analogue) — the default.
	SearchSPOR Search = iota + 1
	// SearchUnreduced is plain stateful DFS.
	SearchUnreduced
	// SearchBFS is stateful BFS (shortest counterexamples). Safe to
	// combine with reduction on any model: the queue variant of the
	// ignoring proviso keeps POR sound on cyclic state graphs.
	SearchBFS
	// SearchStateless is depth-first search without a visited set.
	SearchStateless
	// SearchDPOR is stateless search with dynamic partial-order reduction
	// (single-message models only, as in Basset).
	SearchDPOR
)

// Options configures Check.
type Options struct {
	// Search selects the engine; default SearchSPOR.
	Search Search
	// Split applies a transition refinement before checking; default
	// SplitNone. Refinement never changes the state graph (Theorem 2),
	// only the reduction.
	Split SplitStrategy
	// SymmetryRoles enables role-based symmetry reduction over the given
	// groups of interchangeable processes. SearchDPOR keeps no visited
	// set and rejects it.
	SymmetryRoles [][]ProcessID
	// BestSeed makes the static POR try every seed and keep the smallest
	// ample set. Only SearchSPOR runs static POR; the other searches
	// reject it.
	BestSeed bool
	// TrackTrace records parent links so BFS can reconstruct
	// counterexamples (DFS variants always can).
	TrackTrace bool
	// Workers > 0 parallelizes the selected search with that many workers.
	// The DFS searches (SearchSPOR, SearchUnreduced) run the speculative
	// parallel DFS engine over a sharded concurrent visited-state store:
	// workers steal unexplored sibling subtrees from the deep end of the
	// search stack and precompute their expansions, while a commit walk
	// replays the exact sequential DFS order — results are bit-identical
	// to the sequential search for any worker count. SearchBFS runs the
	// frontier-parallel BFS engine (deterministic per-level merge,
	// identical to sequential BFS). SearchDPOR runs the speculative
	// parallel DPOR engine: workers claim pending backtrack points and
	// precompute the subtrees below them, while the commit walk replays
	// sequential DPOR verbatim — again bit-identical for any worker
	// count. All are sound on every model, cyclic ones included: the
	// expanders and canon functions are stateless/read-only, and each
	// stateful engine enforces its variant of the ignoring proviso. Only
	// SearchStateless does not support workers (-workers in the CLIs).
	Workers int
	// ChunkSize fixes how many frontier nodes a parallel BFS worker claims
	// per grab; 0 means adaptive (frontier/(workers*8), clamped to
	// [1, 1024]). Requires Workers > 0 and SearchBFS; the other searches
	// reject it.
	ChunkSize int
	// BatchSize is the number of successor keys a parallel BFS worker
	// buffers before a batched visited-set insert (one stripe lock per
	// batch instead of per key); 0 means the default of 64. Requires
	// Workers > 0 and SearchBFS; the other searches reject it.
	BatchSize int
	// StealDepth bounds one stolen subtree's speculation in the parallel
	// DFS and DPOR searches: a worker explores at most this many events
	// below a stolen sibling (or backtrack point) before reporting back
	// and stealing afresh; 0 means the default of 8. It tunes throughput
	// only and never changes results. Requires Workers > 0 and the DFS
	// searches (SearchSPOR, SearchUnreduced) or SearchDPOR; SearchBFS
	// rejects it.
	StealDepth int
	// ExactStates stores full state keys instead of 128-bit fingerprints
	// (more memory, zero collision risk). Incompatible with
	// StoreBudgetBytes: the spill tier stores fingerprints only.
	ExactStates bool
	// StoreBudgetBytes > 0 bounds the visited set's in-memory footprint:
	// the search runs over a two-tier explore.SpillStore whose hot tier
	// spills sorted runs of 128-bit fingerprints to disk when it exceeds
	// the budget, letting runs explore state spaces far beyond RAM.
	// Verdicts, search statistics and traces are bit-identical to the
	// in-memory stores for every stateful search, sequential or parallel;
	// Result.Stats reports the spill activity (SpillRuns, SpillBytes,
	// DiskProbes). Stateless and DPOR searches keep no visited set and
	// reject the option.
	StoreBudgetBytes int64
	// SpillDir is the directory for the spill store's run files; empty
	// means a fresh temporary directory, removed when the check returns.
	// Only meaningful (and only accepted) with StoreBudgetBytes > 0.
	SpillDir string
	// Compress enables collapse-style state compression (-compress): a
	// shared intern table dedupes each process's local-state component and
	// the message-bag component across states, so the canonical key a state
	// contributes to the visited store, the fingerprint hash and the spill
	// tier shrinks to a few decimal component IDs. Exact-mode semantics are
	// unchanged — the compressed mapping is injective, so verdicts, every
	// statistic and the explored state space are bit-identical to the
	// uncompressed run — and counterexample traces are transparently
	// decompressed before Check returns, so trace consumers (Replay, DOT
	// rendering) see full canonical keys. Works with every store tier and
	// every stateful search; incompatible with SymmetryRoles (symmetry
	// installs its own canonicalizer) and rejected by the stateless and
	// DPOR searches, which it could not speed up.
	Compress bool
	// Lossy switches the visited set to an explicitly lossy Spin-style
	// bitstate/hash-compaction store (-lossy): k hash probes per state over
	// a fixed bit array sized by BitstateBytes. Memory never grows past the
	// budget, so coverage sweeps can run far beyond exact-store limits, but
	// distinct states may collide and be silently skipped — a lossy
	// "Verified" is a coverage claim, not a verdict, and Result.Stats
	// reports the bit array's fill ratio and estimated omission probability
	// (BitstateFill, BitstateOmission) so the claim can be judged. A
	// reported violation is still real and its trace replays like any
	// other. Rejected wherever soundness demands an exact visited set:
	// stateless and DPOR searches, liveness properties (Property), and the
	// exact-trace options ExactStates and StoreBudgetBytes.
	Lossy bool
	// BitstateBytes sizes the lossy store's bit array in bytes
	// (-bitstate-bytes); 0 means 64 MiB. Only meaningful (and only
	// accepted) with Lossy.
	BitstateBytes int64
	// MaxStates bounds the number of explored states; 0 = unlimited.
	MaxStates int
	// MaxDuration bounds the wall-clock time; 0 = unlimited.
	MaxDuration time.Duration
	// Property, when non-nil, checks this Büchi liveness property instead
	// of the protocol's safety invariant. Only the DFS searches (SearchSPOR,
	// SearchUnreduced) support it — they run nested depth-first search,
	// parallelized deterministically when Workers > 0 — and the protocol is
	// automatically instrumented for the property (its transitions marked
	// visible) before any reduction is built. A counterexample is a lasso:
	// Result.Trace holds stem + cycle, with Result.CycleLen and
	// Result.Stutter describing the cycle. When Property.WeakFair is set the
	// search ignores reduction and explores the full state graph: the
	// fairness monitor observes every transition, so no transition is
	// invisible in the product and the ample-set condition C2 admits no
	// reduction.
	Property *Property
}

// Validate reports the first option combination Check would reject:
// negative sizes and limits, tuning knobs for an engine the options do not
// select, and store, reduction or property settings the selected search
// cannot honour — each refused instead of silently ignored. Check calls it
// first; the CLIs call it before printing anything, so every entry point
// refuses the same combinations with the same message. Errors name both
// the field and the CLI flag that sets it.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Workers (-workers)", int64(o.Workers)},
		{"ChunkSize (-chunk)", int64(o.ChunkSize)},
		{"BatchSize (-batch)", int64(o.BatchSize)},
		{"StealDepth (-steal-depth)", int64(o.StealDepth)},
		{"MaxStates (-max-states)", int64(o.MaxStates)},
		{"MaxDuration (-budget)", int64(o.MaxDuration)},
		{"StoreBudgetBytes (-mem-budget)", o.StoreBudgetBytes},
		{"BitstateBytes (-bitstate-bytes)", o.BitstateBytes},
	} {
		if f.v < 0 {
			return fmt.Errorf("mpbasset: %s must not be negative, got %d", f.name, f.v)
		}
	}
	sequential, parallel := o.engines()
	if sequential.run == nil {
		return fmt.Errorf("mpbasset: unknown search %d", o.Search)
	}
	search := o.search()
	dfs := search == SearchSPOR || search == SearchUnreduced
	stateful := dfs || search == SearchBFS
	var msg string
	switch {
	case o.Workers > 0 && parallel.run == nil:
		msg = "Workers (-workers) is not supported by stateless search — no parallel engine exists for it (SearchDPOR has one)"
	case o.ChunkSize != 0 && o.Workers == 0:
		msg = "ChunkSize (-chunk) requires Workers (-workers): it tunes the parallel BFS scheduler's claim size"
	case o.BatchSize != 0 && o.Workers == 0:
		msg = "BatchSize (-batch) requires Workers (-workers): it tunes the parallel BFS visited-set insert batching"
	case o.StealDepth != 0 && o.Workers == 0:
		msg = "StealDepth (-steal-depth) requires Workers (-workers): it tunes parallel DFS/DPOR subtree speculation"
	case o.ChunkSize != 0 && search != SearchBFS:
		msg = "ChunkSize (-chunk) tunes the parallel BFS frontier scheduler, but this search runs " + parallel.name + " (tune StealDepth (-steal-depth) instead)"
	case o.BatchSize != 0 && search != SearchBFS:
		msg = "BatchSize (-batch) tunes the parallel BFS insert batching, but this search runs " + parallel.name + " (tune StealDepth (-steal-depth) instead)"
	case o.StealDepth != 0 && search == SearchBFS:
		msg = "StealDepth (-steal-depth) tunes parallel DFS/DPOR subtree speculation, but SearchBFS runs frontier-parallel BFS (tune ChunkSize (-chunk) and BatchSize (-batch) instead)"
	case o.Property != nil && !dfs:
		msg = "Property (-property) requires a DFS search (SearchSPOR or SearchUnreduced): liveness checking runs nested depth-first search"
	case o.BestSeed && search != SearchSPOR:
		msg = "BestSeed requires SearchSPOR: it tunes the static partial-order reduction no other search runs"
	case o.SymmetryRoles != nil && search == SearchDPOR:
		msg = "SymmetryRoles (-symmetry) is not supported by SearchDPOR: DPOR keeps no visited set, so it has no use for a canonicalizer"
	case o.SpillDir != "" && o.StoreBudgetBytes == 0:
		msg = "SpillDir (-spill-dir) requires StoreBudgetBytes (-mem-budget): the spill directory is meaningless without a memory budget"
	case o.BitstateBytes != 0 && !o.Lossy:
		msg = "BitstateBytes (-bitstate-bytes) requires Lossy (-lossy): the bit-array budget is meaningless without the lossy store"
	case o.Lossy && !stateful:
		msg = "Lossy (-lossy) requires a stateful search (stateless and DPOR searches keep no visited set)"
	case o.Lossy && o.Property != nil:
		msg = "Lossy (-lossy) is incompatible with Property (-property): nested DFS cycle detection needs an exact visited set"
	case o.Lossy && o.ExactStates:
		msg = "Lossy (-lossy) is incompatible with ExactStates: the bitstate store keeps hash probes, not states"
	case o.Lossy && o.StoreBudgetBytes > 0:
		msg = "Lossy (-lossy) is incompatible with StoreBudgetBytes (-mem-budget): the bitstate store never grows, size it with BitstateBytes (-bitstate-bytes) instead"
	case o.Compress && !stateful:
		msg = "Compress (-compress) requires a stateful search (stateless and DPOR searches keep no visited set to compress)"
	case o.Compress && o.SymmetryRoles != nil:
		msg = "Compress (-compress) is incompatible with SymmetryRoles (-symmetry): symmetry reduction installs its own canonicalizer"
	case o.StoreBudgetBytes > 0 && o.ExactStates:
		msg = "StoreBudgetBytes (-mem-budget) is incompatible with ExactStates: the spill tier stores 128-bit fingerprints only"
	case o.StoreBudgetBytes > 0 && !stateful:
		msg = "StoreBudgetBytes (-mem-budget) requires a stateful search (stateless and DPOR searches keep no visited set to spill)"
	default:
		return nil
	}
	return fmt.Errorf("mpbasset: %s", msg)
}

// Engine names the search engine Check runs for these options, for
// example "speculative parallel DFS" for SearchSPOR with Workers > 0. It
// reads the dispatch table Check itself runs, so a CLI banner cannot name
// a different engine than the one searching.
func (o Options) Engine() string {
	return o.engine().name
}

// search resolves the default search.
func (o Options) search() Search {
	if o.Search == 0 {
		return SearchSPOR
	}
	return o.Search
}

// engine is one entry of the dispatch table: a search engine and its name.
type engine struct {
	name string
	run  func(*core.Protocol, explore.Options) (*explore.Result, error)
}

// engines is the dispatch table: the selected search's sequential engine
// and the parallel engine that reproduces it bit-identically for any
// worker count (zero where none exists, and both zero for an unknown
// search). The DFS searches pair with the speculative ParallelDFS — or,
// with a liveness property, run the nested-DFS pair — the BFS search with
// the frontier-parallel ParallelBFS, and DPOR with its speculative
// parallel engine.
func (o Options) engines() (sequential, parallel engine) {
	switch o.search() {
	case SearchSPOR, SearchUnreduced:
		if o.Property != nil {
			return engine{"nested DFS", explore.NDFS}, engine{"speculative parallel NDFS", explore.ParallelNDFS}
		}
		return engine{"DFS", explore.DFS}, engine{"speculative parallel DFS", explore.ParallelDFS}
	case SearchBFS:
		return engine{"BFS", explore.BFS}, engine{"frontier-parallel BFS", explore.ParallelBFS}
	case SearchStateless:
		return engine{"stateless DFS", explore.StatelessDFS}, engine{}
	case SearchDPOR:
		return engine{"DPOR", dpor.Explore}, engine{"speculative parallel DPOR", dpor.ExploreParallel}
	}
	return engine{}, engine{}
}

// engine selects the dispatch table entry Check runs.
func (o Options) engine() engine {
	sequential, parallel := o.engines()
	if o.Workers > 0 {
		return parallel
	}
	return sequential
}

// Check verifies the protocol's invariant over its full (possibly reduced)
// state space and returns the verdict, statistics, and — for violations —
// a counterexample trace. It rejects invalid options (see Validate) before
// doing any work.
func Check(p *Protocol, opts Options) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("mpbasset: nil protocol")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Split != SplitNone {
		sp, err := refine.Split(p, opts.Split)
		if err != nil {
			return nil, err
		}
		p = sp
	}
	if opts.Property != nil {
		// Instrument before the expander is built in runSearch, so the
		// property-visible marks constrain the reduction (C2).
		ip, err := liveness.Instrument(p, opts.Property)
		if err != nil {
			return nil, err
		}
		p = ip
	}
	xo := explore.Options{
		MaxStates:   opts.MaxStates,
		MaxDuration: opts.MaxDuration,
		TrackTrace:  opts.TrackTrace,
		Workers:     opts.Workers,
		ChunkSize:   opts.ChunkSize,
		BatchSize:   opts.BatchSize,
		StealDepth:  opts.StealDepth,
		Property:    opts.Property,
	}
	if opts.SymmetryRoles != nil {
		canon, err := symmetry.New(p.N, opts.SymmetryRoles)
		if err != nil {
			return nil, err
		}
		xo.Canon = canon.Canon
	}
	var coll *explore.Collapser
	if opts.Compress {
		coll = explore.NewCollapser()
		xo.Canon = coll.Canon
	}
	var spill *explore.SpillStore
	switch {
	case opts.Lossy:
		xo.Store = explore.NewBitstateStore(opts.BitstateBytes, 0)
	case opts.StoreBudgetBytes > 0:
		sp, err := explore.NewSpillStore(explore.SpillConfig{
			BudgetBytes: opts.StoreBudgetBytes,
			Dir:         opts.SpillDir,
		})
		if err != nil {
			return nil, err
		}
		spill = sp
		xo.Store = sp
	case opts.Workers > 0 && opts.ExactStates:
		xo.Store = explore.NewShardedExactStore()
	case opts.Workers > 0:
		xo.Store = explore.NewShardedHashStore()
	case !opts.ExactStates:
		xo.Store = explore.NewHashStore()
	}
	res, err := runSearch(p, opts, xo)
	// The spill store owns disk state (run files, possibly a temporary
	// directory); release it before handing the result back. Spill
	// activity was already copied into res.Stats by the engine.
	if spill != nil {
		if cerr := spill.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	// Compressed trace keys are run-internal intern-table IDs; decompress
	// them so callers (Replay with a nil canon, DOT rendering) always see
	// the states' full canonical keys, regardless of Compress. This also
	// restores bit-identical traces across worker counts: intern IDs depend
	// on the parallel engines' visit order, full keys do not.
	if coll != nil {
		if xerr := coll.ExpandTrace(res.Trace); xerr != nil {
			return nil, fmt.Errorf("mpbasset: decompressing counterexample trace: %w", xerr)
		}
	}
	return res, nil
}

// runSearch builds the static POR expander when the search needs one and
// runs the engine the dispatch table selects.
func runSearch(p *Protocol, opts Options, xo explore.Options) (*Result, error) {
	if opts.search() == SearchSPOR {
		exp, err := por.NewExpander(p)
		if err != nil {
			return nil, err
		}
		exp.BestSeed = opts.BestSeed
		xo.Expander = exp
	}
	return opts.engine().run(p, xo)
}
