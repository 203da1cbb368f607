package eval

import (
	"fmt"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// hashEntryBytes is the approximate in-memory cost of one visited state in
// the exact-mode HashStore: a 16-byte fingerprint key plus Go map bucket
// and header overhead. The store-tier table uses it to translate a byte
// budget into the state cap an exact store could hold in the same memory a
// bitstate sweep gets as its bit array — the "equal memory" comparison the
// bitstate row makes.
const hashEntryBytes = 48

// storeTierBudget is the byte budget both cells of the bitstate row get:
// small enough that the exact store's equivalent state cap binds well
// before the table's MaxStates, large enough that the bitstate array stays
// far from saturation over the same space.
const storeTierBudget = 256 << 10

// StoreTierTable measures the raw-speed store tier: collapse compression
// against the exact stores it must match state-for-state, and the lossy
// bitstate store against an exact store capped at the same memory budget.
//
// Row one runs the regular-storage SPOR workload over the hash and exact
// stores with compression off and on — four cells whose verdicts, state
// and event counts must be identical (collapse is injective; only
// wall-clock may move), which the determinism gate in CompareReports then
// pins. Row two runs the Paxos SPOR workload twice at the same byte
// budget: an exact hash store allowed only the states that fit the budget
// (MaxStates = budget / hashEntryBytes), and a bitstate store whose bit
// array IS the budget — the lossy cell's higher state count is the
// coverage win the tier exists for. Both row-two cells end at a state
// limit, so the comparison gate checks their verdicts only; the bitstate
// cell's count is a coverage claim, not a census.
//
// The table always runs sequentially (Workers is ignored): which states a
// parallel run's bitstate store omits depends on visit order, and this
// table's numbers feed the committed baseline.
func StoreTierTable(opts Options) ([]Row, error) {
	// Only the state cap carries over: every cell names its own tier.
	maxStates := opts.Engine.MaxStates
	tier := func(column string, p *core.Protocol, e mpbasset.Options) (Cell, *mpbasset.Result) {
		e.Search, e.MaxDuration = mpbasset.SearchSPOR, opts.budget()
		if e.MaxStates == 0 {
			e.MaxStates = maxStates
		}
		return check(column, p, e)
	}

	sp, err := storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelQuorum})
	if err != nil {
		return nil, err
	}
	compressRow := Row{Protocol: "Regular storage", Setting: "(3,1) quorum", Property: "Read regularity"}
	for _, t := range []struct {
		column string
		e      mpbasset.Options
	}{
		{"SPOR hash", mpbasset.Options{}},
		{"SPOR exact", mpbasset.Options{ExactStates: true}},
		{"SPOR collapse hash", mpbasset.Options{Compress: true}},
		{"SPOR collapse exact", mpbasset.Options{Compress: true, ExactStates: true}},
	} {
		c, _ := tier(t.column, sp, t.e)
		compressRow.Cells = append(compressRow.Cells, c)
	}

	px, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Model: paxos.ModelQuorum})
	if err != nil {
		return nil, err
	}
	budgetStates := storeTierBudget / hashEntryBytes
	bitstateRow := Row{Protocol: "Paxos", Setting: "(2,3,1) quorum", Property: "Consensus"}

	capped := budgetStates
	if maxStates != 0 && maxStates < budgetStates {
		capped = maxStates
	}
	c, _ := tier(fmt.Sprintf("SPOR exact @%dKiB", storeTierBudget>>10), px, mpbasset.Options{MaxStates: capped})
	c.Note = fmt.Sprintf("capped at %d states (%d B/state)", budgetStates, hashEntryBytes)
	bitstateRow.Cells = append(bitstateRow.Cells, c)

	c, res := tier(fmt.Sprintf("SPOR bitstate @%dKiB", storeTierBudget>>10), px, mpbasset.Options{Lossy: true, BitstateBytes: storeTierBudget})
	if res != nil {
		c.Note = fmt.Sprintf("lossy coverage: fill %.4f, omission ~%.1e", res.Stats.BitstateFill, res.Stats.BitstateOmission)
	}
	bitstateRow.Cells = append(bitstateRow.Cells, c)

	return []Row{compressRow, bitstateRow}, nil
}
