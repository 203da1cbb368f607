// Command mpcheck model checks one of the bundled fault-tolerant protocols
// under a chosen search strategy — the CLI face of the library.
//
// Usage examples:
//
//	mpcheck -protocol paxos -setting 2,3,1 -search spor
//	mpcheck -protocol faulty-paxos -setting 2,3,1 -trace
//	mpcheck -protocol multicast -setting 2,1,2,1 -trace -trace-dot attack.dot
//	mpcheck -protocol storage -setting 3,2 -wrong -search unreduced
//	mpcheck -protocol paxos -setting 2,3,1 -model single -search dpor
//
//	mpcheck -protocol paxos -search spor -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Exit status: 0 verified, 2 counterexample found, 1 error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpbasset/cmd/internal/profile"
	"mpbasset/internal/cli"
	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/por"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("mpcheck", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "paxos", "protocol: paxos | faulty-paxos | multicast | storage")
		setting  = fs.String("setting", "", "process counts, e.g. 2,3,1 (paxos P,A,L), 3,0,1,1 (multicast HR,HI,BR,BI), 3,1 (storage B,R)")
		model    = fs.String("model", "quorum", "modeling style: quorum | single")
		split    = fs.String("split", "none", "transition refinement: none | reply | quorum | combined")
		search   = fs.String("search", "spor", "search: spor | unreduced (alias: dfs) | bfs | stateless | dpor")
		wrong    = fs.Bool("wrong", false, "check the deliberately wrong storage specification")
		sym      = fs.Bool("symmetry", false, "enable role-based symmetry reduction")
		trace    = fs.Bool("trace", false, "print the annotated counterexample trace, if any")
		budget   = fs.Duration("budget", 5*time.Minute, "wall-clock limit")
		maxSt    = fs.Int("max-states", 0, "state limit (0 = unlimited)")
		workers  = fs.Int("workers", 0, "parallelize the search with this many workers: spor/unreduced/dfs run speculative parallel DFS, bfs runs frontier-parallel BFS, dpor runs speculative parallel DPOR (0 = sequential)")
		chunk    = fs.Int("chunk", 0, "frontier nodes a parallel BFS worker claims per grab (0 = adaptive; needs -workers with -search bfs)")
		batch    = fs.Int("batch", 0, "successor keys a parallel BFS worker buffers per batched visited-set insert (0 = default 64; needs -workers with -search bfs)")
		stealD   = fs.Int("steal-depth", 0, "events a parallel DFS/DPOR worker speculates below a stolen sibling or backtrack point before stealing afresh (0 = default 8; needs -workers with a DFS or dpor search)")
		property = fs.String("property", "", "check this liveness property instead of the safety invariant: decided (paxos, faulty-paxos) | delivered (multicast) | reads-complete (storage); runs nested DFS, so it needs a DFS search (spor, unreduced, dfs)")
		fair     = fs.Bool("fair", false, "restrict liveness counterexamples to weakly fair schedules (needs -property; forces full expansion — the fairness monitor observes every transition)")
		memB     = fs.String("mem-budget", "", "visited-set memory budget, e.g. 512M or 2G: past it, fingerprints spill to sorted runs on disk (empty = in-memory only; spor, unreduced and bfs searches)")
		spillDir = fs.String("spill-dir", "", "directory for spill run files (default: a temporary directory; needs -mem-budget)")
		compress = fs.Bool("compress", false, "collapse compression: intern per-process and message-bag components in a shared table so stored state keys shrink to component IDs (stateful searches; verdicts and stats identical to uncompressed)")
		lossy    = fs.Bool("lossy", false, "EXPLICITLY LOSSY bitstate store: k hash probes over a fixed bit array instead of an exact visited set — coverage sweeps past exact-store limits; a 'Verified' is a coverage claim, not a verdict (stateful searches, safety only)")
		bitsB    = fs.String("bitstate-bytes", "", "bit-array size for -lossy, e.g. 64M or 1G (empty = 64M default; needs -lossy)")
		dotOut   = fs.String("dot", "", "write the full state graph (small models!) as Graphviz DOT to this file")
		traceDot = fs.String("trace-dot", "", "write the counterexample trace as Graphviz DOT to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof allocation profile of the run to this file when it ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); err == nil {
			err = perr
		}
	}()
	if err := cli.ValidateParallelFlags(*search, *workers, *chunk, *batch, *stealD); err != nil {
		return err
	}
	memBudget, err := cli.ParseBytes(*memB)
	if err != nil {
		return err
	}
	if err := cli.ValidateSpillFlags(*search, memBudget, *spillDir); err != nil {
		return err
	}
	if err := cli.ValidateLivenessFlags(*search, *property, *fair); err != nil {
		return err
	}
	bitstateBytes, err := cli.ParseBytes(*bitsB)
	if err != nil {
		return err
	}
	if err := cli.ValidateLossyFlags(*search, *lossy, bitstateBytes, memBudget, *property); err != nil {
		return err
	}
	if err := cli.ValidateCompressFlags(*search, *compress, *sym); err != nil {
		return err
	}

	p, roles, err := cli.BuildProtocol(*protocol, *setting, *model, *wrong)
	if err != nil {
		return err
	}
	strat, err := cli.ParseSplit(*split)
	if err != nil {
		return err
	}
	if strat != refine.None {
		if p, err = refine.Split(p, strat); err != nil {
			return err
		}
	}
	var prop *liveness.Property
	if *property != "" {
		if prop, err = cli.BuildProperty(*protocol, *setting, *model, *property, *fair); err != nil {
			return err
		}
		// Instrument before the expander is built, so the property-visible
		// marks constrain the reduction (ample-set condition C2).
		if p, err = liveness.Instrument(p, prop); err != nil {
			return err
		}
	}

	opts := explore.Options{
		MaxDuration: *budget,
		MaxStates:   *maxSt,
		Store:       explore.NewHashStore(),
		TrackTrace:  *trace || *traceDot != "",
		Workers:     *workers,
		ChunkSize:   *chunk,
		BatchSize:   *batch,
		StealDepth:  *stealD,
	}
	var coll *explore.Collapser
	if *compress {
		coll = explore.NewCollapser()
		opts.Canon = coll.Canon
	}
	var spill *explore.SpillStore
	switch {
	case *lossy:
		// Concurrency-safe, so it serves the sequential and parallel
		// engines alike. ValidateLossyFlags already rejected -mem-budget.
		opts.Store = explore.NewBitstateStore(bitstateBytes, 0)
	case memBudget > 0:
		// The spill store is concurrency-safe, so it serves the
		// sequential and parallel engines alike.
		spill, err = explore.NewSpillStore(explore.SpillConfig{BudgetBytes: memBudget, Dir: *spillDir})
		if err != nil {
			return err
		}
		// The deferred close covers the error returns below; the explicit
		// close before the exit paths at the bottom covers os.Exit(2).
		// Close is idempotent, so both may run.
		//lint:closeerr-ok idempotent backstop: the explicit Close on the main path below routes the error into err
		defer spill.Close()
		opts.Store = spill
	case *workers > 0:
		opts.Store = explore.NewShardedHashStore()
	}
	if *sym {
		canon, err := symmetry.New(p.N, roles)
		if err != nil {
			return err
		}
		opts.Canon = canon.Canon
		fmt.Printf("symmetry group: %d permutations\n", canon.NumPermutations())
	}

	// Each search pairs with the parallel engine that reproduces it
	// bit-identically: the DFS searches with the speculative ParallelDFS,
	// bfs with the frontier-parallel ParallelBFS, dpor with the
	// speculative ExploreParallel.
	// ValidateParallelFlags already rejected -workers on other searches.
	var engine func(*core.Protocol, explore.Options) (*explore.Result, error)
	parallelEngine := "speculative parallel DFS"
	opts.Property = prop
	dfsEngine := func() {
		engine = explore.DFS
		if prop != nil {
			engine = explore.NDFS
			parallelEngine = "speculative parallel NDFS"
		}
		if *workers > 0 {
			engine = explore.ParallelDFS
			if prop != nil {
				engine = explore.ParallelNDFS
			}
		}
	}
	switch *search {
	case "spor":
		exp, err := por.NewExpander(p)
		if err != nil {
			return err
		}
		opts.Expander = exp
		dfsEngine()
	case "unreduced", "dfs":
		dfsEngine()
	case "bfs":
		engine = explore.BFS
		if *workers > 0 {
			engine = explore.ParallelBFS
			parallelEngine = "frontier-parallel BFS"
		}
	case "stateless":
		engine = explore.StatelessDFS
	case "dpor":
		engine = dpor.Explore
		if *workers > 0 {
			engine = dpor.ExploreParallel
			parallelEngine = "speculative parallel DPOR"
		}
	default:
		return fmt.Errorf("unknown search %q", *search)
	}

	fmt.Printf("checking %s [%s, %s]\n", p.Name, *search, strat)
	if prop != nil {
		kind := "liveness property"
		if prop.WeakFair {
			kind = "liveness property under weak fairness"
		}
		fmt.Printf("property:  %q (%s)\n", prop.Name, kind)
	}
	if *workers > 0 {
		fmt.Printf("workers:   %d (%s)\n", *workers, parallelEngine)
	}
	if memBudget > 0 {
		fmt.Printf("mem-budget: %d bytes (visited set spills to disk past it)\n", memBudget)
	}
	if *compress {
		fmt.Println("compress:  collapse compression on (stored keys are interned component IDs)")
	}
	if *lossy {
		fmt.Println("lossy:     bitstate store — 'Verified' is a coverage claim, not a verdict")
	}
	if *dotOut != "" {
		if err := writeGraphDOT(p, *dotOut); err != nil {
			return err
		}
	}
	res, err := engine(p, opts)
	// Close before the exit paths below: the spill store owns run files
	// and possibly a temporary directory, and run() exits the process on
	// a violation.
	if spill != nil {
		if cerr := spill.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	// Compressed trace keys are run-internal intern-table IDs; decompress
	// them so the trace renderer, -trace-dot and any downstream replay see
	// full canonical state keys.
	if coll != nil {
		if err := coll.ExpandTrace(res.Trace); err != nil {
			return err
		}
	}
	report(res)
	if *trace && len(res.Trace) > 0 {
		if res.CycleLen > 0 {
			fmt.Printf("counterexample (lasso; the final %d steps form the accepting cycle):\n", res.CycleLen)
		} else if res.Stutter {
			fmt.Println("counterexample (lasso; the final state deadlocks while accepting):")
		} else {
			fmt.Println("counterexample:")
		}
		if err := explore.RenderTrace(os.Stdout, p, res.Trace); err != nil {
			return err
		}
	}
	if *traceDot != "" && len(res.Trace) > 0 {
		if err := writeTraceDOT(p, res.Trace, *traceDot); err != nil {
			return err
		}
	}
	if res.Verdict == explore.VerdictViolated {
		if err := stopProfile(); err != nil {
			return err
		}
		os.Exit(2)
	}
	return nil
}

func report(res *explore.Result) {
	st := res.Stats
	fmt.Printf("verdict:   %s\n", res.Verdict)
	if res.Violation != nil {
		fmt.Printf("violation: %v\n", res.Violation)
	}
	if res.Stutter {
		fmt.Printf("lasso:     %d-step stem to a deadlocked accepting state (stutter cycle)\n", len(res.Trace))
	} else if res.CycleLen > 0 {
		fmt.Printf("lasso:     %d-step stem + %d-step accepting cycle\n", len(res.Trace)-res.CycleLen, res.CycleLen)
	}
	fmt.Printf("states:    %d (%d revisits)\n", st.States, st.Revisits)
	fmt.Printf("events:    %d\n", st.Events)
	if st.RedStates > 0 {
		fmt.Printf("red:       %d product states visited by the nested searches\n", st.RedStates)
	}
	fmt.Printf("deadlocks: %d\n", st.Deadlocks)
	fmt.Printf("depth:     %d\n", st.MaxDepth)
	fmt.Printf("time:      %s\n", st.Duration.Round(time.Millisecond))
	if st.ReducedExpansions+st.FullExpansions > 0 {
		fmt.Printf("expansions: %d reduced / %d full", st.ReducedExpansions, st.FullExpansions)
		if st.ProvisoExpansions > 0 {
			fmt.Printf(" (%d promoted by the ignoring proviso)", st.ProvisoExpansions)
		}
		fmt.Println()
	}
	if st.SpillRuns > 0 || st.DiskProbes > 0 {
		fmt.Printf("spill:     %d runs, %d bytes written, %d disk probes\n",
			st.SpillRuns, st.SpillBytes, st.DiskProbes)
	}
	if st.BitstateFill > 0 {
		fmt.Printf("bitstate:  %.4f fill, ~%.2e omission probability (state count is a coverage claim, not a census)\n",
			st.BitstateFill, st.BitstateOmission)
	}
}

func writeGraphDOT(p *core.Protocol, path string) error {
	g, err := explore.BuildGraph(p, 200000)
	if err != nil {
		return fmt.Errorf("state graph for -dot: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteDOT(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("state graph (%d states, %d edges) written to %s\n", len(g.Nodes), g.NumEdges(), path)
	return nil
}

func writeTraceDOT(p *core.Protocol, trace []explore.Step, path string) error {
	init, err := p.InitialState()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := explore.WriteTraceDOT(f, init.Key(), trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n", path)
	return nil
}
