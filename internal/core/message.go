package core

import (
	"sort"
	"strconv"
	"strings"
)

// ProcessID identifies a process of the system. Processes are numbered
// 0..N-1 within a Protocol.
type ProcessID int

// String returns the decimal representation of the ID.
func (p ProcessID) String() string { return strconv.Itoa(int(p)) }

// Payload is the immutable content of a message beyond its addressing
// envelope. Implementations must be treated as values: once a message is
// sent, its payload must never be mutated.
type Payload interface {
	// Key returns a canonical, collision-free encoding of the payload.
	// Two payloads are considered equal iff their keys are equal.
	Key() string
}

// NoPayload is the payload of messages that carry no content (pure
// signals).
type NoPayload struct{}

// Key implements Payload.
func (NoPayload) Key() string { return "" }

// Message is a message in transit from one process to another. The paper's
// channel c_{i,j} is recovered from the From/To fields, so a single global
// bag of messages represents all channels.
type Message struct {
	From    ProcessID
	To      ProcessID
	Type    string
	Payload Payload
}

// Key returns the canonical encoding of the message. Messages are equal iff
// their keys are equal.
func (m Message) Key() string {
	pk := m.payloadKey()
	var sb strings.Builder
	sb.Grow(m.keyLen(pk))
	m.appendKeyWith(&sb, pk)
	return sb.String()
}

func (m Message) payloadKey() string {
	if m.Payload == nil {
		return ""
	}
	return m.Payload.Key()
}

func (m Message) appendKey(sb *strings.Builder) { m.appendKeyWith(sb, m.payloadKey()) }

// appendKeyWith writes the key of m given its payload's key pk.
func (m Message) appendKeyWith(sb *strings.Builder, pk string) {
	var num [20]byte
	sb.Write(strconv.AppendInt(num[:0], int64(m.From), 10))
	sb.WriteByte('>')
	sb.Write(strconv.AppendInt(num[:0], int64(m.To), 10))
	sb.WriteByte(':')
	sb.WriteString(m.Type)
	if pk != "" {
		sb.WriteByte('{')
		sb.WriteString(pk)
		sb.WriteByte('}')
	}
}

// keyLen returns the length of m's key given its payload's key pk.
func (m Message) keyLen(pk string) int {
	n := decimalLen(int(m.From)) + 1 + decimalLen(int(m.To)) + 1 + len(m.Type)
	if pk != "" {
		n += len(pk) + 2
	}
	return n
}

// decimalLen returns the length of n in decimal.
func decimalLen(n int) int {
	var num [20]byte
	return len(strconv.AppendInt(num[:0], int64(n), 10))
}

// String returns a human-readable rendering of the message.
func (m Message) String() string { return m.Key() }

// SortMessages orders msgs by canonical key, in place. Transitions receive
// their consumed message sets in this order; per the MP semantics the order
// carries no meaning, but a deterministic order keeps searches reproducible.
func SortMessages(msgs []Message) {
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Key() < msgs[j].Key() })
}

// Senders returns the set of distinct senders of msgs, ascending.
func Senders(msgs []Message) []ProcessID {
	seen := make(map[ProcessID]bool, len(msgs))
	var out []ProcessID
	for _, m := range msgs {
		if !seen[m.From] {
			seen[m.From] = true
			out = append(out, m.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
