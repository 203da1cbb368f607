package core

import (
	"errors"
	"fmt"
)

// Invariant is a state-local predicate: it returns nil when the state
// satisfies the property and a descriptive error otherwise. The searches in
// package explore evaluate the invariant on every visited state and report
// the first violating state as a counterexample (§II-A, Properties).
type Invariant func(s *State) error

// Protocol is a complete message-passing protocol model: the number of
// processes, their initial local states, the transition set T = ∪ T_i, and
// the property under verification.
type Protocol struct {
	// Name labels the protocol in results and traces.
	Name string
	// N is the number of processes; ProcessIDs range over [0, N).
	N int
	// Init builds the initial local states, one per process. It is called
	// once per search; the returned slice must have length N.
	Init func() []LocalState
	// InitialMessages seeds the bag of the initial state (rarely needed;
	// spontaneous transitions usually replace the paper's driver
	// messages).
	InitialMessages []Message
	// Transitions is the full transition set.
	Transitions []*Transition
	// Invariant is the property under verification; nil means "explore
	// only" (deadlock detection still applies).
	Invariant Invariant
	// ValidateSends makes Execute check every sent message against the
	// sending transition's Sends specifications (and reply discipline for
	// IsReply transitions). POR soundness rests on those annotations being
	// accurate, so tests enable this.
	ValidateSends bool

	finalized bool
	byProc    [][]*Transition
	scratch   *scratchCache // Enabled's working memory, made by Finalize
}

// Finalize validates the protocol and freezes transition indices. It must
// be called (directly or via InitialState) before the protocol is used by
// a search. Finalize is idempotent.
func (p *Protocol) Finalize() error {
	if p.finalized {
		return nil
	}
	if p.N <= 0 {
		return errors.New("protocol: N must be positive")
	}
	if p.Init == nil {
		return errors.New("protocol: Init is required")
	}
	if len(p.Transitions) == 0 {
		return errors.New("protocol: at least one transition is required")
	}
	names := make(map[string]bool, len(p.Transitions))
	p.byProc = make([][]*Transition, p.N)
	for i, t := range p.Transitions {
		if t == nil {
			return fmt.Errorf("protocol: transition %d is nil", i)
		}
		if err := t.validate(p.N); err != nil {
			return fmt.Errorf("protocol %s: %w", p.Name, err)
		}
		key := t.String()
		if names[key] {
			return fmt.Errorf("protocol %s: duplicate transition %s", p.Name, key)
		}
		names[key] = true
		t.idx = i
		p.byProc[t.Proc] = append(p.byProc[t.Proc], t)
	}
	for _, m := range p.InitialMessages {
		if m.To < 0 || int(m.To) >= p.N || m.From < 0 || int(m.From) >= p.N {
			return fmt.Errorf("protocol %s: initial message %s addresses process out of range", p.Name, m)
		}
	}
	p.scratch = new(scratchCache)
	p.finalized = true
	return nil
}

// InitialState builds the initial global state: per-process initial locals
// and the (usually empty) initial message bag.
func (p *Protocol) InitialState() (*State, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	locals := p.Init()
	if len(locals) != p.N {
		return nil, fmt.Errorf("protocol %s: Init returned %d locals, want %d", p.Name, len(locals), p.N)
	}
	for i, l := range locals {
		if l == nil {
			return nil, fmt.Errorf("protocol %s: Init returned nil local for process %d", p.Name, i)
		}
	}
	bag := NewBag()
	for _, m := range p.InitialMessages {
		bag.Add(m)
	}
	return NewState(locals, bag), nil
}

// ByProc returns the transitions of process q. Valid after Finalize.
func (p *Protocol) ByProc(q ProcessID) []*Transition { return p.byProc[q] }

// CheckInvariant evaluates the invariant, treating nil as always true.
func (p *Protocol) CheckInvariant(s *State) error {
	if p.Invariant == nil {
		return nil
	}
	return p.Invariant(s)
}

// Clone returns a shallow copy of the protocol with a fresh, unfinalized
// transition list (the *Transition values are copied so refinement can
// rewrite names and peers without aliasing the source protocol).
func (p *Protocol) Clone() *Protocol {
	np := &Protocol{
		Name:            p.Name,
		N:               p.N,
		Init:            p.Init,
		InitialMessages: append([]Message(nil), p.InitialMessages...),
		Invariant:       p.Invariant,
		ValidateSends:   p.ValidateSends,
	}
	np.Transitions = make([]*Transition, len(p.Transitions))
	for i, t := range p.Transitions {
		tc := *t
		tc.idx = 0
		np.Transitions[i] = &tc
	}
	return np
}
