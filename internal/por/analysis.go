package por

import (
	"math/bits"

	"mpbasset/internal/core"
)

// Analysis holds the precomputed, state-independent relations over a
// protocol's transitions, mirroring MP-LPOR's pre-computation of
// unconditional (in)dependence outside the modeled program (§IV-B):
//
//   - enabledDeps[t]: the transitions that must accompany an *enabled*
//     member t of a stubborn set — t's own process (they can disable t or
//     conflict on t's messages and local state), t's feeders (they grow
//     t's set of executable events, so reordering them past t loses
//     quorum choices), and global-read couplings;
//   - feeders[t], whose executing processes narrow necessary-enabling sets
//     (NET) of disabled members;
//   - the symmetric dependence relation used by dynamic POR's race
//     detection.
//
// Every relation is a row of bits per transition, stored flat: row i of a
// relation is rel[i*words : (i+1)*words].
type Analysis struct {
	p     *core.Protocol
	words int // uint64 words per transition set
	// conflicts: same-process conflicting transitions plus global-read
	// couplings — the state-independent part of an enabled member's
	// dependence set. Two ReadOnly transitions of one process that cannot
	// contend for the same messages are *not* conflicting (the paper's
	// isWrite annotation at work).
	conflicts []uint64
	// feeders: transitions that may send a message the row's transition
	// consumes. A feeder's process is always an allowed sender.
	feeders []uint64
	// writers: same-process transitions that may change the local state —
	// the only ones that can flip a local guard.
	writers []uint64
	symDep  []uint64
	visible []uint64 // one set: the Visible transitions
}

// NewAnalysis precomputes the relations for p.
func NewAnalysis(p *core.Protocol) (*Analysis, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	ts := p.Transitions
	n := len(ts)
	words := (n + 63) / 64
	rows := make([]uint64, 4*n*words+words)
	a := &Analysis{
		p:         p,
		words:     words,
		conflicts: rows[0 : n*words],
		feeders:   rows[n*words : 2*n*words],
		writers:   rows[2*n*words : 3*n*words],
		symDep:    rows[3*n*words : 4*n*words],
		visible:   rows[4*n*words:],
	}
	for i, ti := range ts {
		setBit(a.row(a.symDep, i), i)
		if ti.Visible {
			setBit(a.visible, i)
		}
		for j, tj := range ts {
			if i == j {
				continue
			}
			same := ti.Proc == tj.Proc
			conflict := same && sameProcConflict(ti, tj)
			feedsJI := canFeed(tj, ti) // tj may supply messages ti consumes
			// Global-read couplings: a reader is affected only by
			// transitions that can change the state it reads.
			reads := (readsProcess(ti, tj.Proc) && !tj.ReadOnly) ||
				(readsProcess(tj, ti.Proc) && !ti.ReadOnly)
			if same && !tj.ReadOnly {
				setBit(a.row(a.writers, i), j)
			}
			if feedsJI {
				setBit(a.row(a.feeders, i), j)
			}
			if conflict || reads {
				setBit(a.row(a.conflicts, i), j)
			}
			if conflict || feedsJI || reads {
				setBit(a.row(a.symDep, i), j)
				setBit(a.row(a.symDep, j), i)
			}
		}
	}
	return a, nil
}

// row returns transition i's row of the flat relation rel.
func (a *Analysis) row(rel []uint64, i int) []uint64 {
	return rel[i*a.words : (i+1)*a.words]
}

func setBit(set []uint64, i int) { set[i/64] |= 1 << (uint(i) % 64) }

func hasBit(set []uint64, i int) bool { return set[i/64]&(1<<(uint(i)%64)) != 0 }

// sameProcConflict decides whether two distinct transitions of one process
// conflict: they do unless both are ReadOnly (neither changes the state the
// other reads) and they cannot contend for the same pending messages.
func sameProcConflict(t, u *core.Transition) bool {
	if !t.ReadOnly || !u.ReadOnly {
		return true
	}
	return mayShareMessages(t, u)
}

// mayShareMessages reports whether two transitions of the same process
// could consume the same message: same consumed type and overlapping
// allowed senders.
func mayShareMessages(t, u *core.Transition) bool {
	if t.Spontaneous() || u.Spontaneous() {
		return false
	}
	if t.MsgType != u.MsgType {
		return false
	}
	if t.Peers == nil || u.Peers == nil {
		return true
	}
	for _, q := range t.Peers {
		for _, r := range u.Peers {
			if q == r {
				return true
			}
		}
	}
	return false
}

// Protocol returns the analyzed protocol.
func (a *Analysis) Protocol() *core.Protocol { return a.p }

// Dependent reports (symmetric, reflexive) static dependence between two
// transitions by index: same process, feeding in either direction, or
// global-read coupling. Dynamic POR uses this for race detection.
func (a *Analysis) Dependent(i, j int) bool { return hasBit(a.row(a.symDep, i), j) }

// DependenceCount returns the number of ordered dependent pairs (i != j).
// Transition refinement should shrink it; the ablation bench reports it.
func (a *Analysis) DependenceCount() int {
	n := 0
	for _, w := range a.symDep {
		n += bits.OnesCount64(w)
	}
	return n - len(a.p.Transitions) // every transition depends on itself
}

// readsProcess reports whether t reads q's local state via GlobalReads.
func readsProcess(t *core.Transition, q core.ProcessID) bool {
	for _, r := range t.GlobalReads {
		if r == q {
			return true
		}
	}
	return false
}

// canFeed reports whether u may send a message that t may consume: u has a
// send specification matching t's message type, whose possible recipients
// include t's process, and u's process is an allowed sender (peer) of t.
// Refined transitions declare narrower peers and reply recipients, making
// this relation sparser — the mechanism behind §III-C/D.
func canFeed(u, t *core.Transition) bool {
	if t.Spontaneous() {
		return false
	}
	if !t.AllowsSender(u.Proc) {
		return false
	}
	for _, spec := range u.Sends {
		if spec.Type != t.MsgType {
			continue
		}
		if specCanReach(u, spec, t.Proc) {
			return true
		}
	}
	return false
}

// specCanReach reports whether u's send specification may address process q.
func specCanReach(u *core.Transition, spec core.SendSpec, q core.ProcessID) bool {
	if spec.To != nil {
		for _, r := range spec.To {
			if r == q {
				return true
			}
		}
		return false
	}
	if spec.ToSenders {
		// Recipients are senders of u's consumed messages, i.e. u's peers.
		if u.Peers == nil {
			return true
		}
		for _, r := range u.Peers {
			if r == q {
				return true
			}
		}
		return false
	}
	return true
}

// closureConfig selects sound weakenings of the closure for ablation
// studies (the paper's appendix distinguishes plain LPOR from LPOR-NET the
// same way): replacing a necessary-enabling set or the uniqueness-refined
// feeder set by a superset is always sound, merely less reductive.
// dropGrowthFeeders is the UNSOUND test-only variant documented at
// Expander.dropGrowthFeeders.
type closureConfig struct {
	disableNET        bool
	disableUniqueness bool
	dropGrowthFeeders bool
}

// scratch is the per-state working memory of the closure: bitsets over
// transitions and the sender sets the closure has computed so far. Expand
// takes one from its cache per call, so concurrent calls never share one.
type scratch struct {
	enabled, inSet, work, best []uint64
	// known marks the transitions whose entry in senders is valid for the
	// current state: each sender set is computed at most once per state.
	known   []uint64
	senders []core.SenderSet
}

func newScratch(a *Analysis) *scratch {
	w := a.words
	sets := make([]uint64, 5*w)
	return &scratch{
		enabled: sets[0:w],
		inSet:   sets[w : 2*w],
		work:    sets[2*w : 3*w],
		best:    sets[3*w : 4*w],
		known:   sets[4*w : 5*w],
		senders: make([]core.SenderSet, len(a.p.Transitions)),
	}
}

// sendersOf returns the senders with a pending candidate for transition i
// at state s, computing them on first use.
func (sc *scratch) sendersOf(t *core.Transition, s *core.State) *core.SenderSet {
	i := t.Index()
	if !hasBit(sc.known, i) {
		s.Msgs.MatchingBySenderSet(&sc.senders[i], t.Proc, t.MsgType, t.Peers)
		setBit(sc.known, i)
	}
	return &sc.senders[i]
}

// add puts every member of deps not yet in the set into the set and the
// worklist.
func (sc *scratch) add(deps []uint64) {
	for w, d := range deps {
		if nw := d &^ sc.inSet[w]; nw != 0 {
			sc.inSet[w] |= nw
			sc.work[w] |= nw
		}
	}
}

// addFeedersExcept adds the feeders of transition i executed by processes
// outside have.
func (a *Analysis) addFeedersExcept(sc *scratch, i int, have *core.SenderSet) {
	for w, f := range a.row(a.feeders, i) {
		for f != 0 {
			j := w*64 + bits.TrailingZeros64(f)
			f &= f - 1
			if !have.Has(a.p.Transitions[j].Proc) && !hasBit(sc.inSet, j) {
				setBit(sc.inSet, j)
				setBit(sc.work, j)
			}
		}
	}
}

// stubborn computes a strong stubborn set at state s, seeded with seed,
// into sc.inSet: an enabled member pulls in anything that could disable
// it, conflict with it, or grow its set of executable events; a disabled
// member pulls in a necessary enabling set. The closure is a fixpoint, so
// the order the worklist is drained in does not affect the result.
func (a *Analysis) stubborn(seed int, s *core.State, sc *scratch, cfg closureConfig) {
	clear(sc.inSet)
	clear(sc.work)
	setBit(sc.inSet, seed)
	setBit(sc.work, seed)
	for {
		i := popFirst(sc.work)
		if i < 0 {
			return
		}
		if hasBit(sc.enabled, i) {
			sc.add(a.row(a.conflicts, i))
			if !cfg.dropGrowthFeeders {
				a.growthFeeders(i, s, sc, cfg.disableUniqueness)
			}
		} else {
			a.net(i, s, sc, cfg.disableNET)
		}
	}
}

// popFirst removes and returns the smallest member of set, or -1 when set
// is empty.
func popFirst(set []uint64) int {
	for w, x := range set {
		if x != 0 {
			set[w] = x & (x - 1)
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// growthFeeders adds the feeders that could still grow the event set of
// the *enabled* transition i at state s. New events for i need new
// consumable messages; when i is UniquePerSender, a sender that already
// contributes a candidate cannot supply another, so only feeders executed
// by non-contributing peers qualify — for a fully split transition whose
// quorum is complete, that is the empty set, which is precisely why
// refinement sharpens the reduction (§III-C/D). Without the uniqueness
// property every feeder must be assumed capable of adding alternatives.
func (a *Analysis) growthFeeders(i int, s *core.State, sc *scratch, disableUniqueness bool) {
	t := a.p.Transitions[i]
	if t.Spontaneous() {
		return
	}
	if !t.UniquePerSender || disableUniqueness {
		sc.add(a.row(a.feeders, i))
		return
	}
	a.addFeedersExcept(sc, i, sc.sendersOf(t, s))
}

// net adds a necessary enabling set for the disabled transition i at state
// s: every path on which i becomes enabled must execute one of the added
// transitions first. The tightest applicable condition is chosen (the
// LPOR-NET optimization):
//
//  1. the local-state guard is false — only the process's own
//     state-writing transitions can change that;
//  2. the message quorum is structurally incomplete — only feeders, and
//     with restricted peers only feeders executed by the *missing* senders
//     (this is where quorum-split sharpens the NET); if no feeder can ever
//     supply the deficit the transition is permanently disabled and the
//     empty set is a valid NET;
//  3. otherwise the content guard rejects every candidate set — a local
//     change or different message contents are needed.
func (a *Analysis) net(i int, s *core.State, sc *scratch, disableNET bool) {
	t := a.p.Transitions[i]
	if !t.LocalGuardOK(s.Locals[t.Proc]) || t.Spontaneous() {
		// For a spontaneous transition whose LocalGuard (if any) holds,
		// the full guard must be local-state based too.
		sc.add(a.row(a.writers, i))
		return
	}
	have := sc.sendersOf(t, s)
	if !t.EnoughSenders(have.Len()) {
		if t.Peers == nil || disableNET {
			sc.add(a.row(a.feeders, i))
		} else {
			a.addFeedersExcept(sc, i, have)
		}
		return
	}
	sc.add(a.row(a.writers, i))
	sc.add(a.row(a.feeders, i))
}
