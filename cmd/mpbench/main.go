// Command mpbench regenerates the paper's evaluation tables: Table I
// (quorum semantics) and Table II (transition refinement), plus the
// state-space analysis of §II-C, a liveness table (the bundled protocols'
// eventuality properties under nested DFS) and a store-tier table
// (collapse compression against the exact stores, lossy bitstate against
// an equal-memory exact cap). It doubles as the CI perf harness: -out
// serializes every table of a run into a machine-readable report, and
// -baseline gates the run against a committed report, failing on
// wall-clock regressions past a threshold or on determinism drift.
//
//	mpbench -table 1
//	mpbench -table 2 -budget 2m
//	mpbench -table 2 -paper          # includes Echo Multicast (3,1,1,1)
//	mpbench -table 3                 # liveness: NDFS unreduced/SPOR/weakly fair
//	mpbench -table 4                 # store tiers: collapse + lossy bitstate
//	mpbench -analysis
//	mpbench -table 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	mpbench -max-states 20000 -budget 30s -out BENCH_ci.json -baseline BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpbasset/cmd/internal/profile"
	"mpbasset/internal/cli"
	"mpbasset/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("mpbench", flag.ContinueOnError)
	var (
		table    = fs.Int("table", 0, "table to regenerate: 1, 2, 3 (liveness) or 4 (store tiers); 0 = all")
		budget   = fs.Duration("budget", time.Minute, "wall-clock limit per cell (the paper's 48h-timeout analogue)")
		maxSt    = fs.Int("max-states", 0, "state limit per cell (0 = unlimited); fixes the explored work so -baseline compares like against like")
		paper    = fs.Bool("paper", false, "run paper-scale workloads (adds Echo Multicast (3,1,1,1); doubles Paxos ballots)")
		analysis = fs.Bool("analysis", false, "print the paper's §II-C/§IV-A state-space analysis")
		verify   = fs.Bool("verify", true, "fail if any verdict deviates from the paper's")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON instead of the table layout")
		outFile  = fs.String("out", "", "write the run's machine-readable report (all tables) to this file, e.g. BENCH_ci.json")
		baseline = fs.String("baseline", "", "gate the run against this committed report (e.g. BENCH_baseline.json): exit 1 on regressions")
		regPct   = fs.Float64("regress-pct", 25, "tolerated per-cell wall-clock growth over the baseline, in percent (needs -baseline)")
		regFloor = fs.Duration("regress-floor", 250*time.Millisecond, "noise floor: baseline cells faster than this are not duration-gated (needs -baseline)")
		workers  = fs.Int("workers", 0, "run the stateful DFS and DPOR cells with this many speculative workers (0 = sequential)")
		stealD   = fs.Int("steal-depth", 0, "events a parallel DFS/DPOR worker speculates below a stolen sibling or backtrack point (0 = default 8; needs -workers)")
		memB     = fs.String("mem-budget", "", "visited-set memory budget per cell, e.g. 512M: past it, fingerprints spill to sorted runs on disk (empty = in-memory only)")
		spillDir = fs.String("spill-dir", "", "directory for spill run files (default: a temporary directory per cell; needs -mem-budget)")
		compress = fs.Bool("compress", false, "run the stateful cells with collapse compression (results bit-identical, only wall-clock moves)")
		lossy    = fs.Bool("lossy", false, "run the stateful cells over the EXPLICITLY LOSSY bitstate store — cell state counts become coverage claims")
		bitsB    = fs.String("bitstate-bytes", "", "bit-array size for -lossy, e.g. 64M (empty = 64M default; needs -lossy)")
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
	if *analysis {
		// The §II-C analysis runs no search; engine flags are irrelevant.
		eval.PrintAnalysis(os.Stdout)
		return nil
	}
	// mpbench's stateful cells run SPOR (a DFS search); reuse the shared
	// flag validation so -steal-depth without -workers (or -spill-dir
	// without -mem-budget) is rejected, not silently ignored.
	if err := cli.ValidateParallelFlags("spor", *workers, 0, 0, *stealD); err != nil {
		return err
	}
	memBudget, err := cli.ParseBytes(*memB)
	if err != nil {
		return err
	}
	if err := cli.ValidateSpillFlags("spor", memBudget, *spillDir); err != nil {
		return err
	}
	bitstateBytes, err := cli.ParseBytes(*bitsB)
	if err != nil {
		return err
	}
	if err := cli.ValidateLossyFlags("spor", *lossy, bitstateBytes, memBudget, ""); err != nil {
		return err
	}
	if *baseline == "" && (*regPct != 25 || *regFloor != 250*time.Millisecond) {
		return fmt.Errorf("-regress-pct/-regress-floor require -baseline (they tune the regression gate)")
	}
	opts := eval.Options{
		Budget: *budget, MaxStates: *maxSt, Paper: *paper,
		Workers: *workers, StealDepth: *stealD,
		StoreBudgetBytes: memBudget, SpillDir: *spillDir,
		Compress: *compress, Lossy: *lossy, BitstateBytes: bitstateBytes,
	}
	var report eval.Report
	emit := func(title string, rows []eval.Row) error {
		report.Tables = append(report.Tables, eval.TableToJSON(title, rows))
		if *jsonOut {
			return eval.WriteJSON(os.Stdout, title, rows)
		}
		eval.FormatRows(os.Stdout, title, rows)
		return nil
	}
	if *table == 0 || *table == 1 {
		rows, err := eval.Table1(opts)
		if err != nil {
			return err
		}
		if err := emit("Table I — quorum semantics (cf. paper Table I)", rows); err != nil {
			return err
		}
		if *verify {
			if err := eval.Verify(rows); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	if *table == 0 || *table == 2 {
		rows, err := eval.Table2(opts)
		if err != nil {
			return err
		}
		if err := emit("Table II — transition refinement (cf. paper Table II)", rows); err != nil {
			return err
		}
		if *verify {
			if err := eval.Verify(rows); err != nil {
				return err
			}
		}
		if *table == 0 {
			fmt.Println()
		}
	}
	if *table == 0 || *table == 3 {
		rows, err := eval.LivenessTable(opts)
		if err != nil {
			return err
		}
		if err := emit("Liveness — nested DFS over the Büchi product", rows); err != nil {
			return err
		}
		if *verify {
			if err := eval.Verify(rows); err != nil {
				return err
			}
		}
		if *table == 0 {
			fmt.Println()
		}
	}
	if *table == 0 || *table == 4 {
		// No Verify here: the compression row's cells are pinned against
		// each other by the baseline determinism gate, and the bitstate
		// row's cells are coverage claims with no paper verdict to match.
		rows, err := eval.StoreTierTable(opts)
		if err != nil {
			return err
		}
		if err := emit("Store tiers — collapse compression and lossy bitstate", rows); err != nil {
			return err
		}
	}
	if *outFile != "" {
		if err := eval.WriteReportFile(*outFile, report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mpbench: report written to %s\n", *outFile)
	}
	if *baseline != "" {
		base, err := eval.ReadReportFile(*baseline)
		if err != nil {
			return err
		}
		// An explicit `-regress-floor 0` means "gate every cell": map it to
		// the library's negative disable sentinel (0 would re-select the
		// default floor).
		floorMS := float64(*regFloor) / float64(time.Millisecond)
		if *regFloor == 0 {
			floorMS = -1
		}
		regs := eval.CompareReports(base, report, eval.CompareOptions{
			MaxSlowdownPct: *regPct,
			MinDurationMS:  floorMS,
		})
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "mpbench: regression:", r)
			}
			return fmt.Errorf("%d regression(s) against %s", len(regs), *baseline)
		}
		fmt.Fprintf(os.Stderr, "mpbench: no regressions against %s\n", *baseline)
	}
	return nil
}
