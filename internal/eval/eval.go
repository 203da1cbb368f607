package eval

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/refine"
)

// Options configures a table run.
type Options struct {
	// Budget bounds each cell's wall-clock time (the analogue of the
	// paper's 48 h timeout); default 60 s. It becomes every cell's
	// mpbasset.Options.MaxDuration.
	Budget time.Duration
	// Paper selects the paper-scale workloads (larger settings where our
	// defaults are reduced); currently this enables the Echo Multicast
	// (3,1,1,1) row of Table II and doubles the Paxos ballots.
	Paper bool
	// Engine holds the engine settings every cell hands to
	// mpbasset.Check: MaxStates, Workers and StealDepth (the stateful
	// cells run the speculative parallel DFS or NDFS engine, the DPOR
	// cells the speculative parallel DPOR engine, all bit-identical to
	// their sequential cells), and the store tier — StoreBudgetBytes and
	// SpillDir, Compress, Lossy and BitstateBytes — whose exact tiers
	// leave cell results bit-identical and whose lossy tier turns state
	// counts into coverage claims. Each cell sets Search, Property and
	// MaxDuration itself. DPOR cells keep no visited set and clear the
	// store tier; liveness cells need an exact visited set and clear
	// Lossy; the store-tier table picks its own tiers.
	Engine mpbasset.Options
}

func (o Options) budget() time.Duration {
	if o.Budget > 0 {
		return o.Budget
	}
	return time.Minute
}

// Cell is one measurement of a table.
type Cell struct {
	Column   string
	Verdict  explore.Verdict
	States   int
	Events   int
	Duration time.Duration
	Note     string
	Err      error
}

// Row is one protocol/property line of a table.
type Row struct {
	Protocol string
	Setting  string
	Property string
	Cells    []Cell
}

// engine returns the facade options of one cell: the table's engine
// settings with the cell's search and property, bounded by the budget.
func (o Options) engine(search mpbasset.Search, prop *liveness.Property) mpbasset.Options {
	e := o.Engine
	e.Search, e.Property = search, prop
	e.MaxDuration = o.budget()
	return e
}

// check runs one search through the facade and converts the result into
// a cell; the result itself (nil on error) is returned for cells that
// annotate it.
func check(column string, p *core.Protocol, e mpbasset.Options) (Cell, *mpbasset.Result) {
	res, err := mpbasset.Check(p, e)
	if err != nil {
		return Cell{Column: column, Err: err}, nil
	}
	c := Cell{
		Column:   column,
		Verdict:  res.Verdict,
		States:   res.Stats.States,
		Events:   res.Stats.Events,
		Duration: res.Stats.Duration,
	}
	if res.Verdict == explore.VerdictLimit {
		c.Note = "timeout"
	}
	return c, res
}

// RunSPOR is the standard stateful DFS + static POR cell used across both
// tables (speculative parallel DFS when Engine.Workers is set).
func RunSPOR(column string, p *core.Protocol, opts Options) Cell {
	c, _ := check(column, p, opts.engine(mpbasset.SearchSPOR, nil))
	return c
}

// RunDPOR is the stateless dynamic-POR cell (single-message models only);
// speculative parallel DPOR when Engine.Workers is set, with results
// bit-identical to the sequential engine. DPOR keeps no visited set, so
// the cell clears the table's store tier, which the facade would reject.
func RunDPOR(column string, p *core.Protocol, opts Options) Cell {
	e := opts.engine(mpbasset.SearchDPOR, nil)
	e.ExactStates, e.StoreBudgetBytes, e.SpillDir = false, 0, ""
	e.Compress, e.Lossy, e.BitstateBytes = false, false, 0
	c, _ := check(column, p, e)
	return c
}

// RunUnreduced is the plain stateful cell.
func RunUnreduced(column string, p *core.Protocol, opts Options) Cell {
	c, _ := check(column, p, opts.engine(mpbasset.SearchUnreduced, nil))
	return c
}

// runSplit runs SPOR over p refined by strat (Table II cells).
func runSplit(p *core.Protocol, strat refine.Strategy, opts Options) Cell {
	e := opts.engine(mpbasset.SearchSPOR, nil)
	e.Split = strat
	c, _ := check(strat.String(), p, e)
	return c
}

// FormatRows renders rows in the paper's table style.
func FormatRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	for _, r := range rows {
		fmt.Fprintf(w, "\n%s %s — %s\n", r.Protocol, r.Setting, r.Property)
		for _, c := range r.Cells {
			if c.Err != nil {
				fmt.Fprintf(w, "  %-22s ERROR: %v\n", c.Column, c.Err)
				continue
			}
			note := ""
			if c.Note != "" {
				note = " (" + c.Note + ")"
			}
			fmt.Fprintf(w, "  %-22s %-8s states=%-9d events=%-10d time=%s%s\n",
				c.Column, c.Verdict, c.States, c.Events, c.Duration.Round(time.Millisecond), note)
		}
	}
}
