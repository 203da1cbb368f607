// Command mpcheck model checks one of the bundled fault-tolerant protocols
// under a chosen search strategy — the CLI face of the library. It turns
// its flags into an mpbasset.Options and runs mpbasset.Check, so option
// validation, engine dispatch and store selection are the facade's.
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
	"io"
	"os"
	"time"

	"mpbasset"
	"mpbasset/cmd/internal/profile"
	"mpbasset/internal/cli"
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/refine"
	"mpbasset/internal/symmetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one mpcheck invocation, writing its report to stdout and
// any error to stderr, and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	violated, err := check(args, stdout, stderr)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "mpcheck:", err)
		return 1
	case violated:
		return 2
	}
	return 0
}

// searches maps the -search names to the facade's searches; dfs is an
// alias for unreduced.
var searches = map[string]mpbasset.Search{
	"spor":      mpbasset.SearchSPOR,
	"unreduced": mpbasset.SearchUnreduced,
	"dfs":       mpbasset.SearchUnreduced,
	"bfs":       mpbasset.SearchBFS,
	"stateless": mpbasset.SearchStateless,
	"dpor":      mpbasset.SearchDPOR,
}

// check runs the search the flags describe and reports whether it found a
// counterexample.
func check(args []string, w, stderr io.Writer) (violated bool, err error) {
	fs := flag.NewFlagSet("mpcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol = fs.String("protocol", "paxos", "protocol: paxos | faulty-paxos | multicast | storage")
		setting  = fs.String("setting", "", "process counts, e.g. 2,3,1 (paxos P,A,L), 3,0,1,1 (multicast HR,HI,BR,BI), 3,1 (storage B,R)")
		model    = fs.String("model", "quorum", "modeling style: quorum | single")
		split    = fs.String("split", "none", "transition refinement: none | reply | quorum | combined")
		search   = fs.String("search", "spor", "search: spor | unreduced (alias: dfs) | bfs | stateless | dpor")
		wrong    = fs.Bool("wrong", false, "check the deliberately wrong storage specification")
		sym      = fs.Bool("symmetry", false, "enable role-based symmetry reduction (not with dpor)")
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
		return false, err
	}
	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return false, err
	}
	defer func() {
		if perr := stopProfile(); err == nil {
			err = perr
		}
	}()

	opts := mpbasset.Options{
		MaxDuration: *budget,
		MaxStates:   *maxSt,
		TrackTrace:  *trace || *traceDot != "",
		Workers:     *workers,
		ChunkSize:   *chunk,
		BatchSize:   *batch,
		StealDepth:  *stealD,
		SpillDir:    *spillDir,
		Compress:    *compress,
		Lossy:       *lossy,
	}
	var ok bool
	if opts.Search, ok = searches[*search]; !ok {
		return false, fmt.Errorf("unknown search %q (want spor, unreduced, dfs, bfs, stateless or dpor)", *search)
	}
	if opts.StoreBudgetBytes, err = cli.ParseBytes(*memB); err != nil {
		return false, err
	}
	if opts.BitstateBytes, err = cli.ParseBytes(*bitsB); err != nil {
		return false, err
	}
	if opts.Split, err = cli.ParseSplit(*split); err != nil {
		return false, err
	}
	p, roles, err := cli.BuildProtocol(*protocol, *setting, *model, *wrong)
	if err != nil {
		return false, err
	}
	if opts.Property, err = cli.BuildProperty(*protocol, *setting, *model, *property, *fair); err != nil {
		return false, err
	}
	if *sym {
		opts.SymmetryRoles = roles
	}
	if err := opts.Validate(); err != nil {
		return false, err
	}

	if *sym {
		canon, err := symmetry.New(p.N, roles)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "symmetry group: %d permutations\n", canon.NumPermutations())
	}
	fmt.Fprintf(w, "checking %s [%s, %s]\n", refine.Name(p.Name, opts.Split), *search, opts.Split)
	if prop := opts.Property; prop != nil {
		kind := "liveness property"
		if prop.WeakFair {
			kind = "liveness property under weak fairness"
		}
		fmt.Fprintf(w, "property:  %q (%s)\n", prop.Name, kind)
	}
	if opts.Workers > 0 {
		fmt.Fprintf(w, "workers:   %d (%s)\n", opts.Workers, opts.Engine())
	}
	if opts.StoreBudgetBytes > 0 {
		fmt.Fprintf(w, "mem-budget: %d bytes (visited set spills to disk past it)\n", opts.StoreBudgetBytes)
	}
	if opts.Compress {
		fmt.Fprintln(w, "compress:  collapse compression on (stored keys are interned component IDs)")
	}
	if opts.Lossy {
		fmt.Fprintln(w, "lossy:     bitstate store — 'Verified' is a coverage claim, not a verdict")
	}
	if *dotOut != "" {
		if err := writeGraphDOT(w, p, opts.Split, *dotOut); err != nil {
			return false, err
		}
	}
	res, err := mpbasset.Check(p, opts)
	if err != nil {
		return false, err
	}
	report(w, res)
	if *trace && len(res.Trace) > 0 {
		if res.CycleLen > 0 {
			fmt.Fprintf(w, "counterexample (lasso; the final %d steps form the accepting cycle):\n", res.CycleLen)
		} else if res.Stutter {
			fmt.Fprintln(w, "counterexample (lasso; the final state deadlocks while accepting):")
		} else {
			fmt.Fprintln(w, "counterexample:")
		}
		// Trace events carry their (possibly refined) transitions, so the
		// trace replays against the protocol as built.
		if err := explore.RenderTrace(w, p, res.Trace); err != nil {
			return false, err
		}
	}
	if *traceDot != "" && len(res.Trace) > 0 {
		if err := writeTraceDOT(w, p, res.Trace, *traceDot); err != nil {
			return false, err
		}
	}
	return res.Verdict == mpbasset.VerdictViolated, nil
}

func report(w io.Writer, res *mpbasset.Result) {
	st := res.Stats
	fmt.Fprintf(w, "verdict:   %s\n", res.Verdict)
	if res.Violation != nil {
		fmt.Fprintf(w, "violation: %v\n", res.Violation)
	}
	if res.Stutter {
		fmt.Fprintf(w, "lasso:     %d-step stem to a deadlocked accepting state (stutter cycle)\n", len(res.Trace))
	} else if res.CycleLen > 0 {
		fmt.Fprintf(w, "lasso:     %d-step stem + %d-step accepting cycle\n", len(res.Trace)-res.CycleLen, res.CycleLen)
	}
	fmt.Fprintf(w, "states:    %d (%d revisits)\n", st.States, st.Revisits)
	fmt.Fprintf(w, "events:    %d\n", st.Events)
	if st.RedStates > 0 {
		fmt.Fprintf(w, "red:       %d product states visited by the nested searches\n", st.RedStates)
	}
	fmt.Fprintf(w, "deadlocks: %d\n", st.Deadlocks)
	fmt.Fprintf(w, "depth:     %d\n", st.MaxDepth)
	fmt.Fprintf(w, "time:      %s\n", st.Duration.Round(time.Millisecond))
	if st.ReducedExpansions+st.FullExpansions > 0 {
		fmt.Fprintf(w, "expansions: %d reduced / %d full", st.ReducedExpansions, st.FullExpansions)
		if st.ProvisoExpansions > 0 {
			fmt.Fprintf(w, " (%d promoted by the ignoring proviso)", st.ProvisoExpansions)
		}
		fmt.Fprintln(w)
	}
	if st.SpillRuns > 0 || st.DiskProbes > 0 {
		fmt.Fprintf(w, "spill:     %d runs, %d bytes written, %d disk probes\n",
			st.SpillRuns, st.SpillBytes, st.DiskProbes)
	}
	if st.BitstateFill > 0 {
		fmt.Fprintf(w, "bitstate:  %.4f fill, ~%.2e omission probability (state count is a coverage claim, not a census)\n",
			st.BitstateFill, st.BitstateOmission)
	}
}

// writeGraphDOT renders the full state graph of p under the refinement
// strat, so the edge labels name the refined transitions.
func writeGraphDOT(w io.Writer, p *core.Protocol, strat refine.Strategy, path string) error {
	if strat != refine.None {
		sp, err := refine.Split(p, strat)
		if err != nil {
			return err
		}
		p = sp
	}
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
	fmt.Fprintf(w, "state graph (%d states, %d edges) written to %s\n", len(g.Nodes), g.NumEdges(), path)
	return nil
}

func writeTraceDOT(w io.Writer, p *core.Protocol, trace []explore.Step, path string) error {
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
	fmt.Fprintf(w, "trace written to %s\n", path)
	return nil
}
