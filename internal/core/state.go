package core

import "strings"

// LocalState is the state of a single process. Implementations must provide
// a canonical encoding and a deep clone; transitions mutate only the clone
// handed to them by the execution engine.
type LocalState interface {
	// Key returns a canonical, collision-free encoding of the local state.
	Key() string
	// Clone returns an independent deep copy.
	Clone() LocalState
}

// State is a global protocol state: one local state per process plus the
// multiset of in-flight messages. States are immutable once constructed;
// Protocol.Execute builds successor states copy-on-write.
type State struct {
	Locals []LocalState
	Msgs   *Bag

	key string // lazily computed canonical encoding
	// ends[i] is the offset in key just past process i's local key; the
	// bag part starts after ends[len-1]+1 (the '#').
	ends []int32
	// parent and changed are set by Execute when the parent's key is
	// already known: every local key but process changed's is then
	// copied from the parent's key instead of being rebuilt. Key clears
	// parent, so a state retains its parent only until it is keyed.
	parent  *State
	changed ProcessID
}

// NewState builds a state from locals and a bag. The arguments are owned by
// the new state and must not be mutated afterwards.
func NewState(locals []LocalState, msgs *Bag) *State {
	if msgs == nil {
		msgs = NewBag()
	}
	return &State{Locals: locals, Msgs: msgs}
}

// Key returns the canonical encoding of the state. Two states are equal iff
// their keys are equal. The key is cached; State must not be mutated after
// the first call.
func (s *State) Key() string {
	if s.key == "" {
		if s.parent != nil && s.parent.key != "" {
			s.keyFromParent()
		} else {
			s.keyFromScratch()
		}
		s.parent = nil
	}
	return s.key
}

// keyFromScratch encodes every local state and the bag.
func (s *State) keyFromScratch() {
	var sb strings.Builder
	sb.Grow(64)
	s.ends = make([]int32, len(s.Locals))
	for i, l := range s.Locals {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(l.Key())
		s.ends[i] = int32(sb.Len())
	}
	sb.WriteByte('#')
	s.Msgs.appendKey(&sb)
	s.key = sb.String()
}

// keyFromParent encodes only the changed process's local state and the
// bag, copying the other local keys from the parent's key. This relies on
// LocalState values staying immutable once Execute has built a state from
// them: the parent's locals are shared with the successor.
func (s *State) keyFromParent() {
	pk, pe := s.parent.key, s.parent.ends
	p := int(s.changed)
	start := 0
	if p > 0 {
		start = int(pe[p-1]) + 1
	}
	end, localsEnd := int(pe[p]), int(pe[len(pe)-1])
	lk := s.Locals[p].Key()
	delta := int32(len(lk) - (end - start))
	var sb strings.Builder
	sb.Grow(localsEnd + int(delta) + 1 + s.Msgs.keyLen())
	sb.WriteString(pk[:start])
	sb.WriteString(lk)
	sb.WriteString(pk[end:localsEnd])
	sb.WriteByte('#')
	s.Msgs.appendKey(&sb)
	s.key = sb.String()
	s.ends = make([]int32, len(pe))
	copy(s.ends, pe)
	for i := p; i < len(s.ends); i++ {
		s.ends[i] += delta
	}
}

// ComponentKeys returns the canonical encoding of the state component by
// component: one key per process local state, plus the message-bag key.
// Key() is exactly the locals joined by '|', then '#', then the bag key —
// ComponentKeys exposes the parts before they are flattened, so collapse
// compression (explore.Collapser) can intern each component in a shared
// table instead of re-splitting the joined string (local keys may contain
// any byte, so splitting the flat key would be ambiguous). The parts are
// substrings of Key().
func (s *State) ComponentKeys() (locals []string, bag string) {
	key := s.Key()
	locals = make([]string, len(s.ends))
	start := 0
	for i, end := range s.ends {
		locals[i] = key[start:end]
		start = int(end) + 1
	}
	if len(s.ends) == 0 {
		start = 1 // key is "#" and the bag
	}
	return locals, key[start:]
}

// Local returns the local state of process p.
func (s *State) Local(p ProcessID) LocalState { return s.Locals[p] }

// String returns the canonical key (useful in error messages and traces).
func (s *State) String() string { return s.Key() }

// GlobalView grants read access to the pre-state of every process. It is
// available inside Apply only to transitions annotated with ReadsGlobal and
// exists for specification instrumentation (history/observer variables), in
// the spirit of the escape hatch the paper documents in its appendix
// (footnote 7). Using it makes the transition conservatively dependent on
// the processes it reads (see package por).
type GlobalView struct {
	locals []LocalState
}

// Local returns the pre-state local state of process p. The returned value
// must not be mutated.
func (v GlobalView) Local(p ProcessID) LocalState { return v.locals[p] }
