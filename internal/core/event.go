package core

import (
	"strconv"
	"strings"
)

// Event is one executable step: a transition together with the exact
// message set it consumes (the paper's s --t(X)--> s'). For spontaneous
// transitions Msgs is nil.
type Event struct {
	T    *Transition
	Msgs []Message // sorted by canonical key

	// keys caches Msgs[i].Key() for events built from a bag's candidates
	// (Enabled, Transition.EventOf); nil on events built by hand.
	keys []string
}

// MsgKey returns the canonical key of Msgs[i], from the event's cache when
// the event was built from a bag.
func (e Event) MsgKey(i int) string {
	if e.keys != nil {
		return e.keys[i]
	}
	return e.Msgs[i].Key()
}

// Key returns a canonical encoding of the event, unique within a finalized
// protocol (it embeds the transition index and the consumed message keys).
func (e Event) Key() string {
	var sb strings.Builder
	n := 4
	for _, k := range e.keys {
		n += 1 + len(k)
	}
	sb.Grow(n)
	var num [20]byte
	sb.Write(strconv.AppendInt(num[:0], int64(e.T.idx), 10))
	for i := range e.Msgs {
		sb.WriteByte(',')
		if e.keys != nil {
			sb.WriteString(e.keys[i])
		} else {
			e.Msgs[i].appendKey(&sb)
		}
	}
	return sb.String()
}

// String renders the event for traces: "proc/name <- {msgs}".
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.T.String())
	if len(e.Msgs) > 0 {
		sb.WriteString(" <- {")
		for i, m := range e.Msgs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(m.String())
		}
		sb.WriteByte('}')
	}
	return sb.String()
}

// Senders returns the distinct senders of the consumed messages.
func (e Event) Senders() []ProcessID { return Senders(e.Msgs) }
