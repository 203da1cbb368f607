package refine

import (
	"fmt"

	"mpbasset/internal/core"
)

// Strategy selects which transitions are split, matching the three refined
// model families of the paper's Table II.
type Strategy int

const (
	// None leaves the protocol unchanged (the "unsplit" column).
	None Strategy = iota
	// Reply splits reply transitions only (reply-split).
	Reply
	// Quorum splits non-reply exact quorum transitions (quorum ≥ 2) only
	// (quorum-split).
	Quorum
	// Combined applies both splits (combined-split).
	Combined
)

// String names the strategy as in the paper's Table II.
func (s Strategy) String() string {
	switch s {
	case None:
		return "unsplit"
	case Reply:
		return "reply-split"
	case Quorum:
		return "quorum-split"
	case Combined:
		return "combined-split"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all strategies in the paper's column order.
func Strategies() []Strategy { return []Strategy{None, Reply, Quorum, Combined} }

// Split returns a refined copy of p according to the strategy. The input
// protocol is not modified. With Strategy None, a plain clone is returned.
//
// A transition is split only when the split changes anything: it must have
// strictly more potential senders than its quorum size. Transitions with
// nil Peers are split over all N processes (the paper's conservative
// assumption when the sender set cannot be narrowed).
func Split(p *core.Protocol, strat Strategy) (*core.Protocol, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	np := p.Clone()
	if strat == None {
		if err := np.Finalize(); err != nil {
			return nil, err
		}
		return np, nil
	}
	var out []*core.Transition
	for _, t := range np.Transitions {
		if !eligible(t, strat) {
			out = append(out, t)
			continue
		}
		universe := t.Peers
		if universe == nil {
			universe = make([]core.ProcessID, np.N)
			for i := range universe {
				universe[i] = core.ProcessID(i)
			}
		}
		for _, combo := range Combinations(universe, t.Quorum) {
			tc := *t
			tc.Name = t.Name + core.PeerSuffix(combo)
			tc.Peers = combo
			out = append(out, &tc)
		}
	}
	np.Transitions = out
	np.Name = Name(p.Name, strat)
	if err := np.Finalize(); err != nil {
		return nil, err
	}
	return np, nil
}

// Name is the name Split gives the refinement of a protocol called name:
// unchanged for None, suffixed with the strategy otherwise.
func Name(name string, strat Strategy) string {
	if strat == None {
		return name
	}
	return name + "+" + strat.String()
}

// eligible reports whether t is split under the strategy and whether the
// split is non-trivial (more potential senders than the quorum needs; the
// paper observes that quorum-split "makes no difference if the quorum
// contains all receivers").
func eligible(t *core.Transition, strat Strategy) bool {
	if t.Quorum < 1 {
		return false
	}
	if t.Peers != nil && len(t.Peers) <= t.Quorum {
		return false
	}
	switch strat {
	case Reply:
		return t.IsReply
	case Quorum:
		return !t.IsReply && t.Quorum >= 2
	case Combined:
		return t.IsReply || t.Quorum >= 2
	default:
		return false
	}
}

// Combinations enumerates all size-k subsets of ids, preserving order
// within each subset, in lexicographic order of positions. It returns nil
// when k exceeds len(ids).
func Combinations(ids []core.ProcessID, k int) [][]core.ProcessID {
	if k < 0 || k > len(ids) {
		return nil
	}
	var (
		out  [][]core.ProcessID
		pick = make([]core.ProcessID, k)
		rec  func(start, depth int)
	)
	rec = func(start, depth int) {
		if depth == k {
			combo := make([]core.ProcessID, k)
			copy(combo, pick)
			out = append(out, combo)
			return
		}
		for i := start; i <= len(ids)-(k-depth); i++ {
			pick[depth] = ids[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}
