package eval

import (
	"fmt"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/refine"
)

func refineStrategies() []refine.Strategy { return refine.Strategies() }

// target is one protocol/property line shared by both tables.
type target struct {
	protocol string
	setting  string
	property string
	quorum   func() (*core.Protocol, error)
	single   func() (*core.Protocol, error)
	// unreducedBaseline replaces the DPOR column with unreduced stateful
	// search — the paper does this for regular storage, whose property is
	// not preserved by Basset's DPOR (Table I, fn. 3).
	unreducedBaseline bool
	// paperOnly marks rows that only run at paper scale (Table II's Echo
	// Multicast (3,1,1,1)).
	paperOnly bool
}

func paxosTarget(faulty bool, opts Options) target {
	cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Faulty: faulty}
	if opts.Paper {
		cfg.MaxBallots = 2
	}
	name, prop := "Paxos", "Consensus"
	if faulty {
		name = "Faulty Paxos"
	}
	return target{
		protocol: name,
		setting:  cfg.Setting(),
		property: prop,
		quorum: func() (*core.Protocol, error) {
			c := cfg
			c.Model = paxos.ModelQuorum
			return paxos.New(c)
		},
		single: func() (*core.Protocol, error) {
			c := cfg
			c.Model = paxos.ModelSingle
			return paxos.New(c)
		},
	}
}

func multicastTarget(cfg multicast.Config, property string, paperOnly bool) target {
	return target{
		protocol:  "Echo Multicast",
		setting:   cfg.Setting(),
		property:  property,
		paperOnly: paperOnly,
		quorum: func() (*core.Protocol, error) {
			c := cfg
			c.Model = multicast.ModelQuorum
			return multicast.New(c)
		},
		single: func() (*core.Protocol, error) {
			c := cfg
			c.Model = multicast.ModelSingle
			return multicast.New(c)
		},
	}
}

func storageTarget(cfg storage.Config, property string) target {
	return target{
		protocol:          "Regular storage",
		setting:           cfg.Setting(),
		property:          property,
		unreducedBaseline: true,
		quorum: func() (*core.Protocol, error) {
			c := cfg
			c.Model = storage.ModelQuorum
			return storage.New(c)
		},
		single: func() (*core.Protocol, error) {
			c := cfg
			c.Model = storage.ModelSingle
			return storage.New(c)
		},
	}
}

// targets lists the paper's evaluation lines in table order.
func targets(opts Options) []target {
	return []target{
		paxosTarget(false, opts),
		paxosTarget(true, opts),
		multicastTarget(multicast.Config{HonestReceivers: 3, HonestInitiators: 0, ByzantineReceivers: 1, ByzantineInitiators: 1}, "Agreement", false),
		multicastTarget(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 0, ByzantineInitiators: 1}, "Agreement", false),
		multicastTarget(multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1}, "Agreement", true),
		multicastTarget(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 2, ByzantineInitiators: 1}, "Wrong agreement", false),
		storageTarget(storage.Config{Objects: 3, Readers: 1}, "Regularity"),
		storageTarget(storage.Config{Objects: 3, Readers: 2, WrongRegularity: true}, "Wrong regularity"),
	}
}

// Table1 reproduces the paper's Table I (quorum semantics): per target, the
// single-message model under stateless DPOR — sequential plus a 2-worker
// speculative parallel cell — (or unreduced stateful search where the paper
// used it), the single-message model under SPOR, and the quorum model under
// SPOR.
func Table1(opts Options) ([]Row, error) {
	var rows []Row
	for _, tg := range targets(opts) {
		if tg.paperOnly {
			// Table I in the paper has no (3,1,1,1) row.
			continue
		}
		sp, err := tg.single()
		if err != nil {
			return nil, fmt.Errorf("table 1 %s%s: %w", tg.protocol, tg.setting, err)
		}
		qp, err := tg.quorum()
		if err != nil {
			return nil, fmt.Errorf("table 1 %s%s: %w", tg.protocol, tg.setting, err)
		}
		row := Row{Protocol: tg.protocol, Setting: tg.setting, Property: tg.property}
		if tg.unreducedBaseline {
			c := RunUnreduced("no-quorum unreduced", sp, opts)
			c.Note = joinNote(c.Note, "paper: DPOR does not preserve this property")
			row.Cells = append(row.Cells, c)
		} else {
			row.Cells = append(row.Cells, RunDPOR("no-quorum DPOR", sp, opts))
			// A 2-worker speculative parallel DPOR cell rides along so the
			// bench gate continuously checks the parallel engine against the
			// sequential cell above (bit-identical counts by construction).
			p2 := opts
			p2.Engine.Workers, p2.Engine.StealDepth = 2, 0
			row.Cells = append(row.Cells, RunDPOR("no-quorum DPOR-p2", sp, p2))
		}
		row.Cells = append(row.Cells,
			RunSPOR("no-quorum SPOR", sp, opts),
			RunSPOR("quorum SPOR", qp, opts),
		)
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2 reproduces the paper's Table II (transition refinement): all
// quorum models under SPOR with the four split strategies.
func Table2(opts Options) ([]Row, error) {
	var rows []Row
	for _, tg := range targets(opts) {
		if tg.paperOnly && !opts.Paper {
			continue
		}
		qp, err := tg.quorum()
		if err != nil {
			return nil, fmt.Errorf("table 2 %s%s: %w", tg.protocol, tg.setting, err)
		}
		row := Row{Protocol: tg.protocol, Setting: tg.setting, Property: tg.property}
		for _, strat := range refineStrategies() {
			row.Cells = append(row.Cells, runSplit(qp, strat, opts))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func joinNote(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// Verify checks the table verdicts against the paper's expectations
// (Verified vs counterexample per row) and returns an error on the first
// mismatch. The protocol tests use it as a regression gate.
func Verify(rows []Row) error {
	for _, r := range rows {
		want := explore.VerdictVerified
		if r.Protocol == "Faulty Paxos" || r.Property == "Wrong agreement" || r.Property == "Wrong regularity" {
			want = explore.VerdictViolated
		}
		for _, c := range r.Cells {
			if c.Err != nil {
				return fmt.Errorf("%s %s [%s]: %w", r.Protocol, r.Setting, c.Column, c.Err)
			}
			if c.Verdict == explore.VerdictLimit {
				continue // a timeout is an acceptable outcome, as in the paper
			}
			if c.Verdict != want {
				return fmt.Errorf("%s %s [%s]: verdict %s, want %s", r.Protocol, r.Setting, c.Column, c.Verdict, want)
			}
		}
	}
	return nil
}
