package eval

import (
	"strings"
	"testing"
	"time"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
)

func TestTable1VerdictsMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	rows, err := Table1(Options{Budget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table I rows = %d, want 7 (as in the paper)", len(rows))
	}
	if err := Verify(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// DPOR rows carry a fourth cell: the 2-worker parallel DPOR run
		// that rides along so the bench gate continuously compares the
		// parallel engine against the sequential cell.
		want := 3
		if r.Cells[0].Column == "no-quorum DPOR" {
			want = 4
		}
		if len(r.Cells) != want {
			t.Fatalf("%s %s: %d cells, want %d columns", r.Protocol, r.Setting, len(r.Cells), want)
		}
	}
	// The parallel DPOR cell must be bit-identical to the sequential one
	// (compared only when both completed: a wall-clock budget truncates
	// each run at a timing-dependent point).
	for _, r := range rows {
		if r.Cells[0].Column != "no-quorum DPOR" {
			continue
		}
		seq, par := r.Cells[0], r.Cells[1]
		if par.Column != "no-quorum DPOR-p2" {
			t.Fatalf("%s %s: cell 1 is %q, want no-quorum DPOR-p2", r.Protocol, r.Setting, par.Column)
		}
		if seq.Verdict != explore.VerdictVerified || par.Verdict != explore.VerdictVerified {
			continue
		}
		if par.States != seq.States || par.Events != seq.Events {
			t.Errorf("%s %s: parallel DPOR states/events %d/%d diverge from sequential %d/%d",
				r.Protocol, r.Setting, par.States, par.Events, seq.States, seq.Events)
		}
	}
	// The headline claim: the quorum model explores fewer states than the
	// single-message model under the same reduction, on every exhaustive
	// verification row.
	for _, r := range rows {
		spor, quorum := r.Cells[len(r.Cells)-2], r.Cells[len(r.Cells)-1]
		if spor.Verdict != explore.VerdictVerified || quorum.Verdict != explore.VerdictVerified {
			continue
		}
		if quorum.States >= spor.States {
			t.Errorf("%s %s: quorum states %d not below single-message states %d",
				r.Protocol, r.Setting, quorum.States, spor.States)
		}
	}
}

func TestTable2VerdictsAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	rows, err := Table2(Options{Budget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table II rows = %d, want 7 (8th row is paper-scale only)", len(rows))
	}
	if err := Verify(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != 4 {
			t.Fatalf("%s %s: %d cells, want 4 split columns", r.Protocol, r.Setting, len(r.Cells))
		}
		// Splits never enlarge the explored space on exhaustive rows
		// (same state graph, finer reduction).
		unsplit := r.Cells[0]
		if unsplit.Verdict != explore.VerdictVerified {
			continue
		}
		for _, c := range r.Cells[1:] {
			if c.States > unsplit.States {
				t.Errorf("%s %s [%s]: %d states above unsplit %d",
					r.Protocol, r.Setting, c.Column, c.States, unsplit.States)
			}
		}
	}
}

// TestCellsUnderMemoryBudget pins the eval layer's spill plumbing: a SPOR
// cell and an unreduced cell run under a tiny memory budget must report
// the same verdict, state and event counts as their in-memory runs —
// sequential and parallel — and the per-cell spill store must not leak
// into the next cell (each run closes its own).
func TestCellsUnderMemoryBudget(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		base := Options{Budget: time.Minute, Engine: mpbasset.Options{Workers: workers}}
		budgeted := base
		budgeted.Engine.StoreBudgetBytes = 2048
		budgeted.Engine.SpillDir = t.TempDir()
		for _, cell := range []struct {
			name string
			run  func(Options) Cell
		}{
			{"spor", func(o Options) Cell { return RunSPOR("spor", p, o) }},
			{"unreduced", func(o Options) Cell { return RunUnreduced("unreduced", p, o) }},
		} {
			ref := cell.run(base)
			got := cell.run(budgeted)
			if ref.Err != nil || got.Err != nil {
				t.Fatalf("workers=%d %s: errors %v / %v", workers, cell.name, ref.Err, got.Err)
			}
			if got.Verdict != ref.Verdict || got.States != ref.States || got.Events != ref.Events {
				t.Errorf("workers=%d %s: budgeted cell %s states=%d events=%d, in-memory %s states=%d events=%d",
					workers, cell.name, got.Verdict, got.States, got.Events, ref.Verdict, ref.States, ref.Events)
			}
		}
	}
}

func TestAnalysisNumbers(t *testing.T) {
	if got := InterleavingBound(3).Int64(); got != 18 { // 3!·3
		t.Errorf("InterleavingBound(3) = %d, want 18", got)
	}
	if got := InterleavingBound(0).Int64(); got != 1 {
		t.Errorf("InterleavingBound(0) = %d, want 1", got)
	}
	if got := SingleMessagePenalty(11, 2).Int64(); got != 169 {
		t.Errorf("SingleMessagePenalty(11,2) = %d, want 169 (the paper's example)", got)
	}
	_, _, penalty := SmallestPaxosExample()
	if penalty.Int64() != 169 {
		t.Errorf("SmallestPaxosExample penalty = %s, want 169", penalty)
	}
	subsets, singles := PowersetCost(3)
	if subsets != 8 || singles != 3 {
		t.Errorf("PowersetCost(3) = %d,%d, want 8,3 (the paper's §IV-A example)", subsets, singles)
	}
	var sb strings.Builder
	PrintAnalysis(&sb)
	if !strings.Contains(sb.String(), "169") {
		t.Error("analysis output misses the paper's example number")
	}
}

func TestFormatRows(t *testing.T) {
	rows := []Row{{
		Protocol: "Demo",
		Setting:  "(1,1)",
		Property: "P",
		Cells: []Cell{
			{Column: "a", Verdict: explore.VerdictVerified, States: 42, Duration: time.Second},
			{Column: "b", Verdict: explore.VerdictLimit, States: 7, Note: "timeout"},
		},
	}}
	var sb strings.Builder
	FormatRows(&sb, "T", rows)
	out := sb.String()
	for _, want := range []string{"Demo", "states=42", "timeout", "Verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table misses %q:\n%s", want, out)
		}
	}
}

// TestLivenessTableVerdictsAndShape pins the liveness table: every bundled
// instance satisfies its eventuality property (so Verify's default
// expectation holds on all nine cells), the SPOR cell never explores more
// than the unreduced product, and the weakly fair cell pays the Choueka
// monitor copies — at least the unrestricted product, explored on the full
// graph.
func TestLivenessTableVerdictsAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation is slow")
	}
	rows, err := LivenessTable(Options{Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("liveness rows = %d, want 3", len(rows))
	}
	if err := Verify(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != 3 {
			t.Fatalf("%s %s: %d cells, want 3 columns", r.Protocol, r.Setting, len(r.Cells))
		}
		unreduced, spor, fair := r.Cells[0], r.Cells[1], r.Cells[2]
		if spor.States > unreduced.States {
			t.Errorf("%s %s: SPOR states %d above unreduced %d",
				r.Protocol, r.Setting, spor.States, unreduced.States)
		}
		if fair.States < unreduced.States {
			t.Errorf("%s %s: weakly fair states %d below unreduced %d (monitor copies should not shrink the product)",
				r.Protocol, r.Setting, fair.States, unreduced.States)
		}
	}
}

// TestLivenessCellsParallelAndSpilled pins RunNDFS's engine plumbing on
// one small model: the parallel and spill-backed cells reproduce the
// sequential in-memory cell's verdict and counts bit-identically, for both
// reduction modes.
func TestLivenessCellsParallelAndSpilled(t *testing.T) {
	cfg := multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 0, ByzantineInitiators: 1}
	build := func() (*core.Protocol, *liveness.Property, error) {
		p, err := multicast.New(cfg)
		return p, multicast.Delivers(cfg), err
	}
	base := Options{Budget: time.Minute}
	for _, reduced := range []bool{false, true} {
		p, prop, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ref := RunNDFS("ref", p, prop, reduced, base)
		if ref.Err != nil {
			t.Fatalf("reduced=%v: %v", reduced, ref.Err)
		}
		for _, alt := range []struct {
			name string
			opts Options
		}{
			{"workers-4", Options{Budget: time.Minute, Engine: mpbasset.Options{Workers: 4}}},
			{"spill-1KiB", Options{Budget: time.Minute, Engine: mpbasset.Options{StoreBudgetBytes: 1 << 10, SpillDir: t.TempDir()}}},
		} {
			p, prop, err := build()
			if err != nil {
				t.Fatal(err)
			}
			c := RunNDFS(alt.name, p, prop, reduced, alt.opts)
			if c.Err != nil {
				t.Fatalf("reduced=%v %s: %v", reduced, alt.name, c.Err)
			}
			if c.Verdict != ref.Verdict || c.States != ref.States || c.Events != ref.Events {
				t.Errorf("reduced=%v %s: %s states=%d events=%d, sequential in-memory %s states=%d events=%d",
					reduced, alt.name, c.Verdict, c.States, c.Events, ref.Verdict, ref.States, ref.Events)
			}
		}
	}
}
