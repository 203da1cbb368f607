package core

import (
	"fmt"
	"slices"
)

// Ctx is the execution context handed to a transition's Apply: the private
// clone of the executing process's local state, the consumed messages, and
// the send primitive.
type Ctx struct {
	// Self is the executing process.
	Self ProcessID
	// Local is a private clone of Self's local state; Apply mutates it
	// freely (typically after a type assertion to the concrete type).
	Local LocalState
	// Msgs is the consumed message set, sorted by canonical key. The order
	// carries no meaning (MP semantics); treat it as a set.
	Msgs []Message

	view    GlobalView
	reads   []ProcessID
	sends   []Message
	sendBuf [4]Message // backs sends for the common few-sends case
}

// Senders returns the distinct senders of the consumed message set.
func (c *Ctx) Senders() []ProcessID { return Senders(c.Msgs) }

// Send enqueues a message from Self to the given recipient. Messages become
// visible in the successor state only.
func (c *Ctx) Send(to ProcessID, typ string, p Payload) {
	c.sends = append(c.sends, Message{From: c.Self, To: to, Type: typ, Payload: p})
}

// Global returns the pre-state local state of process p, read-only. It
// panics unless the executing transition declared p in GlobalReads: global
// reads break process isolation and must be visible to the POR analysis.
func (c *Ctx) Global(p ProcessID) LocalState {
	for _, q := range c.reads {
		if q == p {
			return c.view.Local(p)
		}
	}
	panic(fmt.Sprintf("core: transition of process %d reads process %d without declaring it in GlobalReads", c.Self, p))
}

// successor is a state allocated together with its bag, which Execute
// always builds at once.
type successor struct {
	state State
	bag   Bag
}

// Execute applies event e to state s and returns the successor state
// (§II-A semantics): the consumed messages are removed, the local state of
// the executing process is replaced by the result of the transition body,
// and the sent messages are added. s is not mutated; unaffected local
// states are structurally shared, and so are their keys once s is keyed.
func (p *Protocol) Execute(s *State, e Event) (*State, error) {
	t := e.T
	var consumedBuf [8]int
	consumed, err := locate(s.Msgs, e, consumedBuf[:0])
	if err != nil {
		return nil, err
	}
	locals := make([]LocalState, len(s.Locals))
	copy(locals, s.Locals)
	ctx := &Ctx{
		Self:  t.Proc,
		Local: s.Locals[t.Proc].Clone(),
		Msgs:  e.Msgs,
		view:  GlobalView{locals: s.Locals},
		reads: t.GlobalReads,
	}
	ctx.sends = ctx.sendBuf[:0]
	if t.Apply != nil {
		t.Apply(ctx)
	}
	if p.ValidateSends && t.ReadOnly && ctx.Local.Key() != s.Locals[t.Proc].Key() {
		return nil, fmt.Errorf("transition %s is marked ReadOnly but changed the local state", t)
	}
	locals[t.Proc] = ctx.Local
	for _, m := range ctx.sends {
		if m.To < 0 || int(m.To) >= p.N {
			return nil, fmt.Errorf("execute %s: send to process %d out of range", e, m.To)
		}
		if p.ValidateSends {
			if err := validateSend(t, m, e.Msgs); err != nil {
				return nil, err
			}
		}
	}
	ns := &successor{bag: s.Msgs.successor(consumed, ctx.sends)}
	ns.state = State{Locals: locals, Msgs: &ns.bag}
	if s.key != "" {
		ns.state.parent, ns.state.changed = s, t.Proc
	}
	if p.ValidateSends {
		if err := p.validateUniqueness(&ns.state); err != nil {
			return nil, err
		}
	}
	return &ns.state, nil
}

// locate appends to dst the entry positions in b of e's consumed messages,
// ascending (a message consumed twice appears twice), or fails on the first
// message that is not pending.
func locate(b *Bag, e Event, dst []int) ([]int, error) {
	for i := range e.Msgs {
		j, ok := b.search(e.MsgKey(i))
		if ok {
			taken := 0
			for _, k := range dst {
				if k == j {
					taken++
				}
			}
			ok = taken < b.entries[j].n
		}
		if !ok {
			return nil, fmt.Errorf("execute %s: message %s not pending", e, e.Msgs[i])
		}
		dst = append(dst, j)
	}
	slices.Sort(dst)
	return dst, nil
}

// validateUniqueness checks the UniquePerSender claims of all transitions
// against a reached state (debug mode): the static POR relies on them.
func (p *Protocol) validateUniqueness(s *State) error {
	var m Matches
	for _, t := range p.Transitions {
		if !t.UniquePerSender {
			continue
		}
		s.Msgs.MatchingBySender(&m, t.Proc, t.MsgType, t.Peers)
		for g, q := range m.Senders {
			if n := len(m.Group(g)); n > 1 {
				return fmt.Errorf("transition %s is marked UniquePerSender but sender %d has %d pending candidates in a reachable state", t, q, n)
			}
		}
	}
	return nil
}

// validateSend checks that a sent message is covered by the transition's
// static send specifications, and that reply transitions only send back to
// senders of the consumed set (Definition 4).
func validateSend(t *Transition, m Message, consumed []Message) error {
	isSender := func(q ProcessID) bool {
		for _, c := range consumed {
			if c.From == q {
				return true
			}
		}
		return false
	}
	if t.IsReply && !isSender(m.To) {
		return fmt.Errorf("transition %s is marked IsReply but sends %s to a non-sender", t, m)
	}
	for _, spec := range t.Sends {
		if spec.Type != m.Type {
			continue
		}
		if spec.ToSenders && !isSender(m.To) {
			continue
		}
		if spec.To != nil {
			found := false
			for _, q := range spec.To {
				if q == m.To {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		return nil
	}
	return fmt.Errorf("transition %s sends %s, which matches none of its Sends specifications", t, m)
}
