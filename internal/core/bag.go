package core

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// Bag is a multiset of in-flight messages: the union of all channel
// contents. Channels are unordered per the MP model, so a counted set keyed
// by canonical message encoding represents them faithfully.
//
// The bag is a slice of distinct messages kept sorted by canonical key,
// each stored with its key and multiplicity. Cloning is one slice copy,
// the canonical encoding is one linear write, and lookups are binary
// searches. The zero value is an empty bag ready to use.
type Bag struct {
	entries []bagEntry
	size    int
}

type bagEntry struct {
	key string // msg.Key(), computed once when the message enters a bag
	msg Message
	n   int
}

// NewBag returns an empty bag.
func NewBag() *Bag { return &Bag{} }

// search returns the position of key in the sorted entries (or where it
// would be inserted) and whether it is present.
func (b *Bag) search(key string) (int, bool) {
	lo, hi := 0, len(b.entries)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if b.entries[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(b.entries) && b.entries[lo].key == key
}

// Add inserts one copy of m.
func (b *Bag) Add(m Message) {
	k := m.Key()
	i, ok := b.search(k)
	if ok {
		b.entries[i].n++
	} else {
		b.entries = slices.Insert(b.entries, i, bagEntry{key: k, msg: m, n: 1})
	}
	b.size++
}

// Remove deletes one copy of m. It reports whether a copy was present.
func (b *Bag) Remove(m Message) bool {
	i, ok := b.search(m.Key())
	if !ok {
		return false
	}
	if b.entries[i].n == 1 {
		b.entries = slices.Delete(b.entries, i, i+1)
	} else {
		b.entries[i].n--
	}
	b.size--
	return true
}

// Count returns the number of copies of m in the bag.
func (b *Bag) Count(m Message) int { return b.CountKey(m.Key()) }

// CountKey returns the number of copies of the message whose canonical key
// is key.
func (b *Bag) CountKey(key string) int {
	if i, ok := b.search(key); ok {
		return b.entries[i].n
	}
	return 0
}

// Len returns the total number of messages (counting multiplicity).
func (b *Bag) Len() int { return b.size }

// Distinct returns the number of distinct messages.
func (b *Bag) Distinct() int { return len(b.entries) }

// Clone returns an independent copy of the bag.
func (b *Bag) Clone() *Bag {
	return &Bag{entries: slices.Clone(b.entries), size: b.size}
}

// successor returns what remains of b after removing one copy per entry
// position in consumed (ascending, repeats allowed) and adding sends: one
// exactly sized slice, built by merging the sorted sends into the sorted
// entries.
func (b *Bag) successor(consumed []int, sends []Message) Bag {
	var addBuf [8]bagEntry
	adds := sentEntries(addBuf[:0], sends)
	entries := make([]bagEntry, mergeEntries(nil, b.entries, consumed, adds))
	mergeEntries(entries, b.entries, consumed, adds)
	return Bag{entries: entries, size: b.size - len(consumed) + len(sends)}
}

// sentEntries appends to dst one entry per distinct message of sends,
// sorted by key. The keys of all sends share one allocation.
func sentEntries(dst []bagEntry, sends []Message) []bagEntry {
	if len(sends) == 0 {
		return dst
	}
	total := 0
	for _, m := range sends {
		pk := m.payloadKey()
		dst = append(dst, bagEntry{key: pk, msg: m, n: 1}) // key holds the payload key for now
		total += m.keyLen(pk)
	}
	var sb strings.Builder
	sb.Grow(total)
	for i := range dst {
		dst[i].msg.appendKeyWith(&sb, dst[i].key)
	}
	all, off := sb.String(), 0
	for i := range dst {
		l := dst[i].msg.keyLen(dst[i].key)
		dst[i].key = all[off : off+l]
		off += l
	}
	slices.SortFunc(dst, func(x, y bagEntry) int { return strings.Compare(x.key, y.key) })
	out := dst[:0]
	for _, e := range dst {
		if n := len(out); n > 0 && out[n-1].key == e.key {
			out[n-1].n++
		} else {
			out = append(out, e)
		}
	}
	return out
}

// mergeEntries merges the sorted entries old, less one copy per position
// in consumed, with the sorted adds, writing the result to dst unless dst
// is nil. It returns the number of result entries.
func mergeEntries(dst, old []bagEntry, consumed []int, adds []bagEntry) int {
	n, c, j := 0, 0, 0
	for i := 0; ; i++ {
		for j < len(adds) && (i == len(old) || adds[j].key < old[i].key) {
			if dst != nil {
				dst[n] = adds[j]
			}
			n++
			j++
		}
		if i == len(old) {
			return n
		}
		e := old[i]
		for c < len(consumed) && consumed[c] == i {
			e.n--
			c++
		}
		if j < len(adds) && adds[j].key == e.key {
			e.n += adds[j].n
			j++
		}
		if e.n > 0 {
			if dst != nil {
				dst[n] = e
			}
			n++
		}
	}
}

// Each calls f for every distinct message with its multiplicity, in
// ascending order of canonical message key.
func (b *Bag) Each(f func(m Message, n int)) {
	for i := range b.entries {
		f(b.entries[i].msg, b.entries[i].n)
	}
}

// EachKey calls f for every distinct message's canonical key with its
// multiplicity, in ascending key order. The keys are the bag's own, so no
// message is re-encoded.
func (b *Bag) EachKey(f func(key string, n int)) {
	for i := range b.entries {
		f(b.entries[i].key, b.entries[i].n)
	}
}

// Candidate is one distinct pending message a matching query selected,
// with its canonical key.
type Candidate struct {
	Key string
	Msg Message
}

// Matches holds the result of Bag.MatchingBySender: the distinct pending
// candidates of one query, grouped by ascending sender, each group in
// ascending key order. A Matches is reused across queries; each query
// overwrites the previous result.
type Matches struct {
	// Senders lists the senders with at least one candidate, ascending;
	// Group(g) holds the candidates of Senders[g].
	Senders []ProcessID
	cands   []Candidate
	ends    []int // Group(g) is cands[ends[g-1]:ends[g]]
}

// Group returns the candidates of Senders[g], in ascending key order.
func (m *Matches) Group(g int) []Candidate {
	start := 0
	if g > 0 {
		start = m.ends[g-1]
	}
	return m.cands[start:m.ends[g]]
}

// Candidates returns every candidate, grouped by ascending sender.
func (m *Matches) Candidates() []Candidate { return m.cands }

// matches reports whether m is addressed to proc with type typ from a
// sender peers admits (nil peers admit anyone).
func (m *Message) matches(proc ProcessID, typ string, peers []ProcessID) bool {
	if m.To != proc || m.Type != typ {
		return false
	}
	if peers == nil {
		return true
	}
	for _, q := range peers {
		if q == m.From {
			return true
		}
	}
	return false
}

// MatchingBySender collects into dst the distinct pending messages
// addressed to proc with the given type whose sender is allowed by peers
// (nil peers = any sender): one linear pass over the bag, grouped by
// ascending sender, each group in key order.
//
// Multiplicity is irrelevant here: consuming any one of several identical
// copies yields the same successor state, so one representative suffices.
func (b *Bag) MatchingBySender(dst *Matches, proc ProcessID, typ string, peers []ProcessID) {
	dst.Senders, dst.cands, dst.ends = dst.Senders[:0], dst.cands[:0], dst.ends[:0]
	ordered := true
	for i := range b.entries {
		m := &b.entries[i].msg
		if !m.matches(proc, typ, peers) {
			continue
		}
		if n := len(dst.cands); n > 0 && m.From < dst.cands[n-1].Msg.From {
			ordered = false
		}
		dst.cands = append(dst.cands, Candidate{Key: b.entries[i].key, Msg: *m})
	}
	// Every key starts with the decimal sender and '>', so each sender's
	// messages form one run in key order; the runs follow the decimal
	// order of the senders ("10" sorts before "2"), and a stable sort
	// restores the numeric order while keeping each run in key order.
	if !ordered {
		slices.SortStableFunc(dst.cands, func(x, y Candidate) int { return cmp.Compare(x.Msg.From, y.Msg.From) })
	}
	for i, c := range dst.cands {
		if i == 0 || c.Msg.From != dst.cands[i-1].Msg.From {
			if i > 0 {
				dst.ends = append(dst.ends, i)
			}
			dst.Senders = append(dst.Senders, c.Msg.From)
		}
	}
	if len(dst.cands) > 0 {
		dst.ends = append(dst.ends, len(dst.cands))
	}
}

// MatchingBySenderSet stores in dst the senders MatchingBySender would
// report, without collecting the messages. It allocates nothing for
// process IDs below 64.
func (b *Bag) MatchingBySenderSet(dst *SenderSet, proc ProcessID, typ string, peers []ProcessID) {
	dst.reset()
	for i := range b.entries {
		if m := &b.entries[i].msg; m.matches(proc, typ, peers) {
			dst.add(m.From)
		}
	}
}

// HasMatching reports whether at least one pending message is addressed to
// proc with the given type from an allowed sender.
func (b *Bag) HasMatching(proc ProcessID, typ string, peers []ProcessID) bool {
	for i := range b.entries {
		if b.entries[i].msg.matches(proc, typ, peers) {
			return true
		}
	}
	return false
}

// SenderSet is a set of process IDs, filled by Bag.MatchingBySenderSet. IDs
// below 64 live in one inline word; larger ones spill into a slice that
// later queries reuse. The zero value is an empty set.
type SenderSet struct {
	lo   uint64
	hi   []uint64 // bit p-64 of the wide part
	size int
}

func (s *SenderSet) reset() {
	s.lo = 0
	clear(s.hi)
	s.size = 0
}

func (s *SenderSet) add(p ProcessID) {
	w, bit := s.word(p, true)
	if *w&bit == 0 {
		*w |= bit
		s.size++
	}
}

// Has reports whether p is in the set.
func (s *SenderSet) Has(p ProcessID) bool {
	w, bit := s.word(p, false)
	return w != nil && *w&bit != 0
}

// Len returns the number of members.
func (s *SenderSet) Len() int { return s.size }

// word locates p's bit, growing the wide part when grow is set; it returns
// a nil word for an absent wide bit when grow is not set.
func (s *SenderSet) word(p ProcessID, grow bool) (*uint64, uint64) {
	if p < 64 {
		return &s.lo, 1 << uint(p)
	}
	i := int(p-64) / 64
	if i >= len(s.hi) {
		if !grow {
			return nil, 0
		}
		s.hi = append(s.hi, make([]uint64, i+1-len(s.hi))...)
	}
	return &s.hi[i], 1 << (uint(p-64) % 64)
}

// keyLen returns the length of the bag's canonical encoding.
func (b *Bag) keyLen() int {
	n := 0
	for i := range b.entries {
		e := &b.entries[i]
		n += 1 + len(e.key)
		if e.n > 1 {
			n += 1 + decimalLen(e.n)
		}
	}
	return n
}

// appendKey writes the canonical encoding of the bag: message keys in
// ascending order, each with its multiplicity when above one.
func (b *Bag) appendKey(sb *strings.Builder) {
	var num [20]byte
	for i := range b.entries {
		e := &b.entries[i]
		sb.WriteByte(';')
		sb.WriteString(e.key)
		if e.n > 1 {
			sb.WriteByte('*')
			sb.Write(strconv.AppendInt(num[:0], int64(e.n), 10))
		}
	}
}

// Key returns the canonical encoding of the bag contents.
func (b *Bag) Key() string {
	var sb strings.Builder
	sb.Grow(b.keyLen())
	b.appendKey(&sb)
	return sb.String()
}
