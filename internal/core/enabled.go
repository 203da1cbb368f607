package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// AnyQuorum, used as a Transition.Quorum value, selects unrestricted
// subset consumption: every non-empty guard-accepted subset of matching
// pending messages is a separate event. This is the paper's original
// MP-Basset enumeration (§IV-A), exponential in the number of pending
// messages — the cost the exact-quorum specialization avoids.
const AnyQuorum = -1

// maxAnyQuorumPending bounds the powerset enumeration: an AnyQuorum
// transition facing more pending candidates than this indicates a modeling
// error (unbounded message accumulation), and enumeration panics with a
// diagnostic rather than silently exploding.
const maxAnyQuorumPending = 20

// Enabled enumerates every executable event of state s: every pair (t, X)
// such that X consists of exactly t.Quorum messages of t's type from
// t.Quorum distinct allowed senders and t's guard holds (§II-A). Events
// are returned in deterministic order (transition index, then message
// keys).
//
// This is the exact-quorum specialization of MP-Basset's "enabled set of
// messages" computation (§IV-A): instead of enumerating the full powerset
// of pending messages, only sender combinations of the declared quorum size
// are generated. PowersetSize quantifies the cost the paper's unrestricted
// enumeration would pay.
//
// The events' message sets share two backing arrays, so a call allocates
// a constant number of times however many events it returns.
func (p *Protocol) Enabled(s *State) []Event {
	sc := p.scratch.get()
	defer p.scratch.put(sc)
	sc.events, sc.lens, sc.msgs, sc.keys = sc.events[:0], sc.lens[:0], sc.msgs[:0], sc.keys[:0]
	for _, t := range p.Transitions {
		sc.appendEventsFor(t, s)
	}
	return sc.result()
}

// scratchCache keeps Enabled's working memory between calls. Unlike a
// sync.Pool it is not emptied by garbage collection, so a sequential search
// allocates its scratch once and allocation counts repeat between runs. It
// holds at most as many scratches as there were concurrent calls.
type scratchCache struct {
	mu   sync.Mutex
	free []*enumScratch
}

// get takes a cached scratch, or allocates one when none is cached (or p
// was never finalized, leaving c nil).
func (c *scratchCache) get() *enumScratch {
	if c == nil {
		return new(enumScratch)
	}
	c.mu.Lock()
	n := len(c.free)
	if n == 0 {
		c.mu.Unlock()
		return new(enumScratch)
	}
	sc := c.free[n-1]
	c.free = c.free[:n-1]
	c.mu.Unlock()
	return sc
}

func (c *scratchCache) put(sc *enumScratch) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.free = append(c.free, sc)
	c.mu.Unlock()
}

// enumScratch is the reusable working memory of one Enabled call.
type enumScratch struct {
	match  Matches
	combo  []int       // group index chosen for each quorum slot
	choice []int       // candidate index within each chosen group
	pick   []Candidate // the candidate set under test, sorted by key
	all    []Candidate // every candidate in key order (AnyQuorum)
	guard  []Message   // pick's messages, as handed to the guard

	// Staged events: lens[i] consumed messages of events[i] are the next
	// lens[i] entries of msgs and keys.
	events []Event
	lens   []int
	msgs   []Message
	keys   []string
}

// stage records the event of t consuming the candidates in pick.
func (sc *enumScratch) stage(t *Transition, pick []Candidate) {
	sc.events = append(sc.events, Event{T: t})
	sc.lens = append(sc.lens, len(pick))
	for _, c := range pick {
		sc.msgs = append(sc.msgs, c.Msg)
		sc.keys = append(sc.keys, c.Key)
	}
}

// result copies the staged events into exactly sized arrays owned by the
// caller.
func (sc *enumScratch) result() []Event {
	if len(sc.events) == 0 {
		return nil
	}
	out := slices.Clone(sc.events)
	msgs, keys := slices.Clone(sc.msgs), slices.Clone(sc.keys)
	off := 0
	for i, n := range sc.lens {
		if n > 0 {
			out[i].Msgs = msgs[off : off+n : off+n]
			out[i].keys = keys[off : off+n : off+n]
			off += n
		}
	}
	return out
}

// try evaluates t's guard on the candidate set in pick (sorted by key) and
// stages the event when it holds.
func (sc *enumScratch) try(t *Transition, local LocalState) {
	sc.guard = sc.guard[:0]
	for _, c := range sc.pick {
		sc.guard = append(sc.guard, c.Msg)
	}
	if t.guardOK(local, sc.guard) {
		sc.stage(t, sc.pick)
	}
}

func (sc *enumScratch) appendEventsFor(t *Transition, s *State) {
	local := s.Locals[t.Proc]
	if t.Spontaneous() {
		if t.guardOK(local, nil) {
			sc.stage(t, nil)
		}
		return
	}
	if !t.LocalGuardOK(local) {
		return
	}
	s.Msgs.MatchingBySender(&sc.match, t.Proc, t.MsgType, t.Peers)
	if t.Quorum == AnyQuorum {
		sc.appendSubsetEvents(t, local)
		return
	}
	q, groups := t.Quorum, len(sc.match.Senders)
	if groups < q {
		return
	}
	// Enumerate every size-q combination of senders in lexicographic
	// order; within a combination every per-sender alternative (distinct
	// payloads from the same sender are alternative choices, §II-A
	// non-determinism), the last slot varying fastest.
	sc.combo, sc.choice = sc.combo[:0], sc.choice[:0]
	for i := 0; i < q; i++ {
		sc.combo = append(sc.combo, i)
		sc.choice = append(sc.choice, 0)
	}
	for {
		clear(sc.choice)
		for {
			sc.pick = sc.pick[:0]
			for d, g := range sc.combo {
				sc.pick = append(sc.pick, sc.match.Group(g)[sc.choice[d]])
			}
			sortByKey(sc.pick)
			sc.try(t, local)
			d := q - 1
			for ; d >= 0; d-- {
				if sc.choice[d]++; sc.choice[d] < len(sc.match.Group(sc.combo[d])) {
					break
				}
				sc.choice[d] = 0
			}
			if d < 0 {
				break
			}
		}
		i := q - 1
		for i >= 0 && sc.combo[i] == groups-q+i {
			i--
		}
		if i < 0 {
			return
		}
		sc.combo[i]++
		for j := i + 1; j < q; j++ {
			sc.combo[j] = sc.combo[j-1] + 1
		}
	}
}

// sortByKey orders a small candidate set by key (insertion sort: quorum
// sets hold a handful of candidates).
func sortByKey(cs []Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Key < cs[j-1].Key; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// appendSubsetEvents enumerates every non-empty subset of the matching
// pending messages (AnyQuorum semantics). All messages across senders are
// flattened into key order; subsets are generated in bitmask order.
func (sc *enumScratch) appendSubsetEvents(t *Transition, local LocalState) {
	sc.all = append(sc.all[:0], sc.match.Candidates()...)
	all := sc.all
	if len(all) == 0 {
		return
	}
	if len(all) > maxAnyQuorumPending {
		panic(fmt.Sprintf("core: AnyQuorum transition %s faces %d pending messages (cap %d); bound the model",
			t, len(all), maxAnyQuorumPending))
	}
	slices.SortFunc(all, func(x, y Candidate) int { return strings.Compare(x.Key, y.Key) })
	for mask := 1; mask < 1<<len(all); mask++ {
		sc.pick = sc.pick[:0]
		for i := range all {
			if mask&(1<<i) != 0 {
				sc.pick = append(sc.pick, all[i])
			}
		}
		sc.try(t, local)
	}
}

// EventOf returns the event of t consuming the single candidate c, as
// Enabled would build it.
func (t *Transition) EventOf(c Candidate) Event {
	return Event{T: t, Msgs: []Message{c.Msg}, keys: []string{c.Key}}
}

// EnoughSenders reports whether n distinct allowed senders with pending
// candidates make t structurally enabled: at least t.Quorum of them, or a
// single one for AnyQuorum. Spontaneous transitions always are.
func (t *Transition) EnoughSenders(n int) bool {
	if t.Quorum == AnyQuorum {
		return n > 0
	}
	return n >= t.Quorum
}

// StructurallyEnabled reports whether t has at least the quorum of distinct
// allowed senders with pending messages in s, ignoring the guard. Package
// por uses the distinction to pick necessary enabling sets. AnyQuorum
// transitions are structurally enabled once a single candidate is pending.
func (p *Protocol) StructurallyEnabled(t *Transition, s *State) bool {
	if t.Spontaneous() {
		return true
	}
	var senders SenderSet
	s.Msgs.MatchingBySenderSet(&senders, t.Proc, t.MsgType, t.Peers)
	return t.EnoughSenders(senders.Len())
}

// MissingSenders returns the allowed peers of t that currently have no
// pending candidate message, ascending. For transitions with nil Peers it
// returns nil (any process could supply the missing messages). Package
// por's NET optimization narrows necessary enabling transitions to feeders
// executed by missing senders.
func (p *Protocol) MissingSenders(t *Transition, s *State) []ProcessID {
	if t.Peers == nil {
		return nil
	}
	var senders SenderSet
	s.Msgs.MatchingBySenderSet(&senders, t.Proc, t.MsgType, t.Peers)
	var missing []ProcessID
	for _, q := range t.Peers {
		if !senders.Has(q) {
			missing = append(missing, q)
		}
	}
	slices.Sort(missing)
	return missing
}

// PowersetSize returns 2^k capped at maxInt, the number of message subsets
// MP-Basset's unrestricted quorum enumeration inspects for k pending
// messages (§IV-A: "these are 2^3 sets compared to only three messages").
// It exists for the evaluation harness's cost analysis.
func PowersetSize(k int) int {
	if k >= 62 {
		return int(^uint(0) >> 1)
	}
	return 1 << k
}
