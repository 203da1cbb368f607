// FuzzEngineAgreement is the cross-engine differential fuzz harness: fuzz
// inputs decode into a generated protocol (an mptest.GenConfig — ring
// size, cycle priority, fault/quorum knobs — or the ignoring trap), and
// every stateful engine must agree on it, over in-memory and spill-to-disk
// stores alike. Any divergence in verdict, state count, statistics or
// replayed trace fails the input. The BFS family (BFS, ParallelBFS at
// several worker counts) is held bit-identical to sequential BFS; the parallel
// DFS family (ParallelDFS at several worker counts and steal depths) is
// held bit-identical to sequential DFS, unreduced and SPOR-reduced alike.
// The seed corpus covers IgnoringTrap and the soundness-matrix
// configurations of por/proviso_test.go, so plain `go test` exercises them
// deterministically; `go test -fuzz FuzzEngineAgreement` explores the
// configuration space beyond the seeds (the `make fuzz` / CI smoke entry
// point).
//
// The harness additionally has a liveness mode (the livenessMode
// parameter): the input decodes into a protocol plus a Büchi property (a
// rounds-threshold eventually-goal, or the liveness trap's own property),
// the explicit Tarjan oracle of package liveness fixes the ground-truth
// verdict, and the NDFS family — sequential and ParallelNDFS at several
// worker counts, over in-memory and spill stores, unreduced and
// SPOR-reduced — must reach that verdict with every configuration
// bit-identical (stats, lasso trace, cycle shape) to the sequential NDFS
// reference of its reduction mode, and every reported lasso must replay.
// The fair parameter turns on weak fairness, exercising the copies
// monitor.
//
// The safety mode also runs a lossy-coverage leg: DFS and BFS over a
// deliberately tiny BitstateStore, whose hash collisions silently omit
// states. A lossy "no violation" is a coverage claim, not a verdict, so
// this is the one leg the harness deliberately does NOT hold to
// bit-identity — it asserts only the contracts a lossy run does make: any
// violation it reports is real (the trace replays), it never "finds" a
// violation in a space the exact reference verified, it never visits more
// states than the exact reference, and omissions are visible in the
// reported fill ratio.
//
// A third mode (the dporMode parameter, which takes precedence) targets the
// stateless dynamic-POR engine: the input decodes into a generated
// single-message model (quorum, cycle and trap knobs forced off — DPOR
// rejects quorum transitions and assumes acyclic state graphs), and
// dpor.ExploreParallel at 1, 2 and 4 workers must be bit-identical —
// verdict, statistics modulo the volatile speculation counters, violation
// and trace — to sequential dpor.Explore, with sleep sets on and off. The
// seed corpus mirrors the DPOR validation suite's generator configurations.
package explore_test

import (
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/mptest"
	"mpbasset/internal/por"
)

// fuzzMaxStates bounds one fuzz execution; inputs whose unreduced state
// space exceeds it are skipped as uninteresting (the bound must never be
// hit mid-comparison, since a limited run's statistics depend on visit
// order).
const fuzzMaxStates = 5000

// fuzzEngines is the BFS-side engine matrix of the harness: sequential BFS
// and DFS plus ParallelBFS at 1 and 4 workers.
// Sequential BFS doubles as the reference when run over the in-memory
// store.
func fuzzEngines() []diffEngine {
	parallel := func(workers int) func(*core.Protocol, explore.Options) (*explore.Result, error) {
		return func(p *core.Protocol, xo explore.Options) (*explore.Result, error) {
			xo.Workers = workers
			return explore.ParallelBFS(p, xo)
		}
	}
	return []diffEngine{
		{"BFS", explore.BFS, true},
		{"DFS", explore.DFS, false},
		{"ParallelBFS-1", parallel(1), true},
		{"ParallelBFS-4", parallel(4), true},
	}
}

// fuzzDFSEngines is the DFS-side matrix: ParallelDFS at 1 and 4 workers
// (plus a shallow steal depth, which stresses re-stealing), each held
// bit-identical — stats and trace — to the sequential DFS reference.
func fuzzDFSEngines() []diffEngine {
	pdfs := func(workers, stealDepth int) func(*core.Protocol, explore.Options) (*explore.Result, error) {
		return func(p *core.Protocol, xo explore.Options) (*explore.Result, error) {
			xo.Workers = workers
			xo.StealDepth = stealDepth
			return explore.ParallelDFS(p, xo)
		}
	}
	return []diffEngine{
		{"ParallelDFS-1", pdfs(1, 0), true},
		{"ParallelDFS-4", pdfs(4, 0), true},
		{"ParallelDFS-4-steal-1", pdfs(4, 1), true},
	}
}

// decodeFuzzProtocol maps raw fuzz arguments onto a bounded protocol:
// either the ignoring trap (ring 2..6) or a generated protocol whose
// knobs are clamped to the generator's meaningful ranges.
func decodeFuzzProtocol(seed int64, procs, ring, prio, threshold, rounds uint8, quorums, anyQuorums, cycles, trap bool) (*core.Protocol, error) {
	if trap {
		return mptest.IgnoringTrap(2 + int(ring%5))
	}
	return mptest.Random(mptest.GenConfig{
		Seed:          seed,
		MaxProcs:      2 + int(procs%3), // 2..4 processes
		Quorums:       quorums,
		AnyQuorums:    anyQuorums,
		Cycles:        cycles,
		RingSize:      int(ring % 6), // 0, 2..5 (1 behaves as the 2-bounce)
		CyclePriority: int(prio % 6), // benign 0 through adversarial 5
		Threshold:     int(threshold % 3),
		MaxRounds:     2 + int(rounds%3), // 2 (the default) .. 4 (deep spines)
	})
}

// decodeFuzzLiveness maps raw fuzz arguments onto a (protocol, property)
// pair for the liveness mode: the liveness trap with its own property, or
// a generated protocol with a rounds-threshold eventually-goal on process
// 0 (already instrumented for the property). fair turns on weak fairness.
func decodeFuzzLiveness(seed int64, procs, ring, prio, threshold, rounds uint8, quorums, anyQuorums, cycles, trap, fair bool) (*core.Protocol, *liveness.Property, error) {
	var (
		p    *core.Protocol
		prop *liveness.Property
		err  error
	)
	if trap {
		p, prop, err = mptest.LivenessTrap(2 + int(ring%5))
	} else {
		p, err = decodeFuzzProtocol(seed, procs, ring, prio, threshold, rounds, quorums, anyQuorums, cycles, false)
		if err == nil {
			goal := 1 + int(threshold%2)
			prop = liveness.Eventually("rounds reach goal", []core.ProcessID{0}, func(s *core.State) bool {
				return s.Local(0).(*mptest.Local).Rounds >= goal
			})
		}
	}
	if err != nil {
		return nil, nil, err
	}
	prop.WeakFair = fair
	p, err = liveness.Instrument(p, prop)
	if err != nil {
		return nil, nil, err
	}
	return p, prop, nil
}

// fuzzNDFSEngines is the liveness-mode matrix: ParallelNDFS at 1 and 4
// workers plus a shallow steal depth, each held bit-identical to the
// sequential NDFS reference of its reduction mode.
func fuzzNDFSEngines() []diffEngine {
	pndfs := func(workers, stealDepth int) func(*core.Protocol, explore.Options) (*explore.Result, error) {
		return func(p *core.Protocol, xo explore.Options) (*explore.Result, error) {
			xo.Workers = workers
			xo.StealDepth = stealDepth
			return explore.ParallelNDFS(p, xo)
		}
	}
	return []diffEngine{
		{"NDFS", explore.NDFS, true},
		{"ParallelNDFS-1", pndfs(1, 0), true},
		{"ParallelNDFS-4", pndfs(4, 0), true},
		{"ParallelNDFS-4-steal-1", pndfs(4, 1), true},
	}
}

// fuzzLivenessCheck is the liveness-mode body of the harness: oracle
// ground truth, then the NDFS matrix over stores and reductions held to
// the oracle's verdict and to per-mode bit-identity, with every lasso
// replayed.
func fuzzLivenessCheck(t *testing.T, p *core.Protocol, prop *liveness.Property) {
	ores, err := liveness.Oracle(p, prop, fuzzMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Limited {
		t.Skip("product exceeds the fuzz budget")
	}
	want := explore.VerdictVerified
	if ores.Violated {
		want = explore.VerdictViolated
	}
	exp, err := por.NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		exp  explore.Expander
	}{{"unreduced", nil}}
	if !prop.WeakFair {
		// Under weak fairness the NDFS engines force full expansion, so the
		// reduced mode would duplicate the unreduced one.
		modes = append(modes, struct {
			name string
			exp  explore.Expander
		}{"spor", exp})
	}
	for _, mode := range modes {
		refOpts := explore.Options{Property: prop, Expander: mode.exp, Store: explore.NewHashStore()}
		ref, err := explore.NDFS(p, refOpts)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if ref.Verdict != want {
			t.Errorf("%s: sequential NDFS verdict %s, oracle %s (%d product states, %d accepting)",
				mode.name, ref.Verdict, want, ores.States, ores.AcceptingStates)
			continue
		}
		if ref.Verdict == explore.VerdictViolated {
			if _, err := explore.ReplayLasso(p, prop, ref.Trace, ref.CycleLen, ref.Stutter, nil); err != nil {
				t.Errorf("%s: lasso does not replay: %v", mode.name, err)
			}
		}
		for _, eng := range fuzzNDFSEngines() {
			for _, store := range []struct {
				name  string
				store func() explore.Store
			}{
				{"mem", func() explore.Store { return explore.NewHashStore() }},
				{"spill", func() explore.Store { return tinySpill(t, 512) }},
			} {
				run := explore.Options{Property: prop, Expander: mode.exp, Store: store.store()}
				res, err := eng.run(p, run)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", mode.name, eng.name, store.name, err)
				}
				label := mode.name + "/" + eng.name + "/" + store.name
				if res.Verdict != ref.Verdict || res.CycleLen != ref.CycleLen || res.Stutter != ref.Stutter {
					t.Errorf("%s: verdict/cycle (%s, %d, %v), reference (%s, %d, %v)",
						label, res.Verdict, res.CycleLen, res.Stutter, ref.Verdict, ref.CycleLen, ref.Stutter)
					continue
				}
				if rs, ws := maskSpill(res.Stats), maskSpill(ref.Stats); rs != ws {
					t.Errorf("%s: stats %+v, reference %+v", label, rs, ws)
				}
				if len(res.Trace) != len(ref.Trace) {
					t.Errorf("%s: trace length %d, reference %d", label, len(res.Trace), len(ref.Trace))
					continue
				}
				for i := range res.Trace {
					if res.Trace[i].StateKey != ref.Trace[i].StateKey ||
						res.Trace[i].Event.Key() != ref.Trace[i].Event.Key() {
						t.Errorf("%s: trace step %d diverges", label, i)
						break
					}
				}
			}
		}
	}
}

// fuzzDPORCheck is the dporMode body of the harness: on a generated
// single-message model, sequential DPOR fixes the reference per sleep-set
// mode and the speculative parallel engine at 1, 2 and 4 workers is held
// bit-identical to it — verdict, statistics modulo the volatile speculation
// counters, violation message and counterexample trace — with every
// violation replayed.
func fuzzDPORCheck(t *testing.T, p *core.Protocol) {
	for _, sleep := range []bool{true, false} {
		cfg := dpor.Config{SleepSets: sleep}
		opts := explore.Options{MaxStates: fuzzMaxStates}
		ref, err := dpor.ExploreWith(p, opts, cfg)
		if err != nil {
			t.Fatalf("sequential DPOR (sleep=%v): %v", sleep, err)
		}
		if ref.Verdict == explore.VerdictLimit {
			t.Skip("state space exceeds the fuzz budget")
		}
		if ref.Verdict == explore.VerdictViolated {
			if _, err := explore.ReplayViolation(p, ref.Trace, nil); err != nil {
				t.Errorf("sleep=%v: sequential DPOR counterexample does not replay: %v", sleep, err)
			}
		}
		for _, w := range []int{1, 2, 4} {
			popts := opts
			popts.Workers = w
			res, err := dpor.ExploreParallelWith(p, popts, cfg)
			if err != nil {
				t.Fatalf("parallel DPOR w=%d (sleep=%v): %v", w, sleep, err)
			}
			if res.Verdict != ref.Verdict {
				t.Errorf("dpor w=%d sleep=%v: verdict %s, sequential %s", w, sleep, res.Verdict, ref.Verdict)
				continue
			}
			if !eval.StatsEqualModuloVolatile(res.Stats, ref.Stats) {
				rs, ws := res.Stats, ref.Stats
				eval.MaskVolatileStats(&rs)
				eval.MaskVolatileStats(&ws)
				t.Errorf("dpor w=%d sleep=%v: stats %+v, sequential %+v", w, sleep, rs, ws)
			}
			refViol, resViol := "", ""
			if ref.Violation != nil {
				refViol = ref.Violation.Error()
			}
			if res.Violation != nil {
				resViol = res.Violation.Error()
			}
			if resViol != refViol {
				t.Errorf("dpor w=%d sleep=%v: violation %q, sequential %q", w, sleep, resViol, refViol)
			}
			if len(res.Trace) != len(ref.Trace) {
				t.Errorf("dpor w=%d sleep=%v: trace length %d, sequential %d", w, sleep, len(res.Trace), len(ref.Trace))
				continue
			}
			for i := range res.Trace {
				if res.Trace[i].StateKey != ref.Trace[i].StateKey ||
					res.Trace[i].Event.Key() != ref.Trace[i].Event.Key() {
					t.Errorf("dpor w=%d sleep=%v: trace step %d diverges", w, sleep, i)
					break
				}
			}
		}
	}
}

// fuzzLossyCheck is the lossy-coverage leg of the safety mode: sequential
// DFS and BFS over a deliberately tiny bitstate store (512 bits after the
// constructor's floor, so hash collisions — omitted states — are forced on
// all but the smallest inputs). Lossy results are coverage claims, not
// verdicts, so nothing here is compared for bit-identity against the exact
// engines; the leg pins the contracts a lossy run does make instead. ref
// is the exact unreduced BFS reference (never VerdictLimit — the caller
// skips those inputs).
func fuzzLossyCheck(t *testing.T, p *core.Protocol, ref *explore.Result) {
	for _, eng := range []diffEngine{
		{"DFS", explore.DFS, false},
		{"BFS", explore.BFS, false},
	} {
		xo := explore.Options{TrackTrace: true, MaxStates: fuzzMaxStates}
		xo.Store = explore.NewBitstateStore(64, 3)
		res, err := eng.run(p, xo)
		if err != nil {
			t.Fatalf("lossy/%s: %v", eng.name, err)
		}
		if res.Stats.BitstateFill <= 0 || res.Stats.BitstateFill > 1 {
			t.Errorf("lossy/%s: fill %v outside (0,1] after a non-empty run", eng.name, res.Stats.BitstateFill)
		}
		if res.Verdict == explore.VerdictViolated {
			// A lossy violation is real — omission can hide states, never
			// invent them — so its trace must replay...
			if _, err := explore.ReplayViolation(p, res.Trace, nil); err != nil {
				t.Errorf("lossy/%s: counterexample does not replay: %v", eng.name, err)
			}
			// ...and a space the exact reference verified has none to find.
			if ref.Verdict == explore.VerdictVerified {
				t.Errorf("lossy/%s: violation reported in a space the exact reference verified", eng.name)
			}
		}
		if ref.Verdict == explore.VerdictVerified {
			// With no violation to stop at, the lossy run sees a subset of
			// the exact space: omission only shrinks it. (A violated
			// reference stops early, so no bound holds there.)
			if res.Stats.States > ref.Stats.States {
				t.Errorf("lossy/%s: %d states exceeds the exact reference's %d", eng.name, res.Stats.States, ref.Stats.States)
			}
			// Every omitted state is a collision, and collisions need set
			// bits.
			if res.Stats.States < ref.Stats.States && res.Stats.BitstateOmission <= 0 {
				t.Errorf("lossy/%s: %d states omitted but omission estimate is %v", eng.name,
					ref.Stats.States-res.Stats.States, res.Stats.BitstateOmission)
			}
		}
	}
}

func FuzzEngineAgreement(f *testing.F) {
	// Seed corpus: an acyclic quorum protocol, the cyclic soundness-matrix
	// configurations (two-process bounce and longer rings at benign and
	// adversarial cycle priorities, with and without violations), a
	// violating deep-cycle seed, two deep-round seeds (long first-child
	// spines, the ParallelDFS steal stress), and the ignoring trap at
	// rings 2 and 4.
	f.Add(int64(0), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), true, false, false, false, false, false, false)
	f.Add(int64(0), uint8(2), uint8(0), uint8(0), uint8(1), uint8(0), true, false, true, false, false, false, false)
	f.Add(int64(5), uint8(2), uint8(0), uint8(3), uint8(1), uint8(0), true, false, true, false, false, false, false)
	f.Add(int64(3), uint8(2), uint8(3), uint8(3), uint8(1), uint8(0), true, false, true, false, false, false, false)
	f.Add(int64(9), uint8(2), uint8(4), uint8(3), uint8(2), uint8(0), true, true, true, false, false, false, false)
	f.Add(int64(1), uint8(2), uint8(3), uint8(3), uint8(2), uint8(0), true, false, true, false, false, false, false)
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), true, false, false, false, false, false, false)
	f.Add(int64(7), uint8(2), uint8(3), uint8(3), uint8(1), uint8(2), true, false, true, false, false, false, false)
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, false, false, true, false, false, false)
	f.Add(int64(0), uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), false, false, false, true, false, false, false)

	// Liveness-mode seeds: the liveness trap at rings 2 and 4 (the proviso
	// regression, where proviso-free reduction hides the accepting cycle),
	// cyclic generated models at the adversarial cycle priority with a
	// real-cycle counterexample, an acyclic quorum model whose runs halt
	// short of the goal (stutter lassos), a verified-side model, and two
	// weakly fair variants (the copies monitor over both polarities).
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, false, false, true, true, false, false)
	f.Add(int64(0), uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), false, false, false, true, true, false, false)
	f.Add(int64(1), uint8(2), uint8(3), uint8(3), uint8(1), uint8(0), true, false, true, false, true, false, false)
	f.Add(int64(3), uint8(2), uint8(3), uint8(3), uint8(0), uint8(0), true, false, true, false, true, false, false)
	f.Add(int64(0), uint8(2), uint8(0), uint8(0), uint8(1), uint8(0), true, false, false, false, true, false, false)
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), true, false, false, false, true, false, false)
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, false, false, true, true, true, false)
	f.Add(int64(1), uint8(2), uint8(3), uint8(3), uint8(1), uint8(0), true, false, true, false, true, true, false)

	// DPOR-mode seeds, mirroring the validation suite's generator
	// configurations (internal/dpor's differential tests): small rings at
	// thresholds 0..2 and a deep-round spine, all single-message.
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, false, false, false, false, false, true)
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), uint8(2), uint8(0), false, false, false, false, false, false, true)
	f.Add(int64(9), uint8(2), uint8(0), uint8(0), uint8(1), uint8(0), false, false, false, false, false, false, true)
	f.Add(int64(17), uint8(2), uint8(0), uint8(0), uint8(2), uint8(2), false, false, false, false, false, false, true)

	f.Fuzz(func(t *testing.T, seed int64, procs, ring, prio, threshold, rounds uint8, quorums, anyQuorums, cycles, trap, livenessMode, fair, dporMode bool) {
		if dporMode {
			// Single-message only: quorum transitions are rejected by the
			// engine and cyclic state graphs break the stateless search, so
			// those knobs (and the traps) are forced off.
			p, err := decodeFuzzProtocol(seed, procs, ring, prio, threshold, rounds, false, false, false, false)
			if err != nil {
				t.Fatalf("generator rejected a clamped config: %v", err)
			}
			fuzzDPORCheck(t, p)
			return
		}
		if livenessMode {
			p, prop, err := decodeFuzzLiveness(seed, procs, ring, prio, threshold, rounds, quorums, anyQuorums, cycles, trap, fair)
			if err != nil {
				t.Fatalf("generator rejected a clamped config: %v", err)
			}
			fuzzLivenessCheck(t, p, prop)
			return
		}
		p, err := decodeFuzzProtocol(seed, procs, ring, prio, threshold, rounds, quorums, anyQuorums, cycles, trap)
		if err != nil {
			t.Fatalf("generator rejected a clamped config: %v", err)
		}
		xo := explore.Options{TrackTrace: true, MaxStates: fuzzMaxStates}

		// References: sequential unreduced BFS and DFS over the in-memory
		// store, one per engine family.
		memRef := xo
		memRef.Store = explore.NewHashStore()
		ref, err := explore.BFS(p, memRef)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Verdict == explore.VerdictLimit {
			t.Skip("state space exceeds the fuzz budget")
		}
		dfsMemRef := xo
		dfsMemRef.Store = explore.NewHashStore()
		dfsRef, err := explore.DFS(p, dfsMemRef)
		if err != nil {
			t.Fatal(err)
		}

		// Lossy-coverage leg: no bit-identity, only the coverage-claim
		// contracts (see fuzzLossyCheck).
		fuzzLossyCheck(t, p, ref)

		check := func(label string, eng diffEngine, reduced *por.Expander, want *explore.Result) {
			for _, spillStore := range []struct {
				name  string
				store func() explore.Store
			}{
				{"mem", func() explore.Store { return explore.NewHashStore() }},
				{"spill", func() explore.Store { return tinySpill(t, 512) }},
			} {
				run := xo
				run.Store = spillStore.store()
				if reduced != nil {
					run.Expander = reduced
				}
				res, err := eng.run(p, run)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", label, eng.name, spillStore.name, err)
				}
				// Soundness first: every engine, store and reduction must
				// reach the reference verdict.
				if res.Verdict != ref.Verdict {
					t.Errorf("%s/%s/%s: verdict %s, reference %s", label, eng.name, spillStore.name, res.Verdict, ref.Verdict)
					continue
				}
				if res.Verdict == explore.VerdictViolated {
					if _, err := explore.ReplayViolation(p, res.Trace, nil); err != nil {
						t.Errorf("%s/%s/%s: counterexample does not replay: %v", label, eng.name, spillStore.name, err)
					}
				}
				if want == nil {
					continue // reduced DFS explores its own reduced graph
				}
				// Bit-identity against the family reference. Sequential
				// DFS is non-strict vs the BFS reference: it visits the
				// identical unreduced state space but at first-path depths
				// (and stops at a different first violation), so it is
				// compared on verified runs with MaxDepth masked. Strict
				// engines (ParallelBFS vs BFS, ParallelDFS vs DFS) must
				// match their reference's stats and trace exactly.
				rs, ws := maskSpill(res.Stats), maskSpill(want.Stats)
				if !eng.strict {
					if res.Verdict != explore.VerdictVerified {
						continue
					}
					rs.MaxDepth, ws.MaxDepth = 0, 0
				}
				if rs != ws {
					t.Errorf("%s/%s/%s: stats %+v, want %+v", label, eng.name, spillStore.name, rs, ws)
				}
				if eng.strict {
					if len(res.Trace) != len(want.Trace) {
						t.Errorf("%s/%s/%s: trace length %d, want %d", label, eng.name, spillStore.name, len(res.Trace), len(want.Trace))
						continue
					}
					for i := range res.Trace {
						if res.Trace[i].StateKey != want.Trace[i].StateKey ||
							res.Trace[i].Event.Key() != want.Trace[i].Event.Key() {
							t.Errorf("%s/%s/%s: trace step %d diverges", label, eng.name, spillStore.name, i)
							break
						}
					}
				}
			}
		}

		// Unreduced: every engine over both stores against its family
		// reference.
		for _, eng := range fuzzEngines() {
			check("unreduced", eng, nil, ref)
		}
		for _, eng := range fuzzDFSEngines() {
			check("unreduced", eng, nil, dfsRef)
		}

		// SPOR-reduced: the BFS family must be bit-identical to the
		// reduced sequential BFS reference and the parallel DFS family to
		// the reduced sequential DFS reference (the two references explore
		// different reduced graphs — queue vs stack proviso); sequential
		// reduced DFS itself is held to verdict agreement and trace replay
		// only.
		exp, err := por.NewExpander(p)
		if err != nil {
			t.Fatal(err)
		}
		redRef := xo
		redRef.Store = explore.NewHashStore()
		redRef.Expander = exp
		red, err := explore.BFS(p, redRef)
		if err != nil {
			t.Fatal(err)
		}
		if red.Verdict != ref.Verdict {
			t.Errorf("reduced BFS verdict %s, unreduced %s (POR unsound on this input)", red.Verdict, ref.Verdict)
		}
		dfsRedRef := xo
		dfsRedRef.Store = explore.NewHashStore()
		dfsRedRef.Expander = exp
		dfsRed, err := explore.DFS(p, dfsRedRef)
		if err != nil {
			t.Fatal(err)
		}
		if dfsRed.Verdict != ref.Verdict {
			t.Errorf("reduced DFS verdict %s, unreduced %s (stack proviso unsound on this input)", dfsRed.Verdict, ref.Verdict)
		}
		for _, eng := range fuzzEngines() {
			want := red
			if !eng.strict {
				want = nil
			}
			check("spor", eng, exp, want)
		}
		for _, eng := range fuzzDFSEngines() {
			check("spor", eng, exp, dfsRed)
		}
	})
}
