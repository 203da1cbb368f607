package core

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// mapBag is the map-based bag the sorted-slice Bag replaced, kept as the
// oracle of the differential tests below.
type mapBag struct {
	entries map[string]mapEntry
	size    int
}

type mapEntry struct {
	msg Message
	n   int
}

func newMapBag() *mapBag { return &mapBag{entries: make(map[string]mapEntry)} }

func (b *mapBag) Add(m Message) {
	k := m.Key()
	e := b.entries[k]
	e.msg = m
	e.n++
	b.entries[k] = e
	b.size++
}

func (b *mapBag) Remove(m Message) bool {
	k := m.Key()
	e, ok := b.entries[k]
	if !ok {
		return false
	}
	if e.n == 1 {
		delete(b.entries, k)
	} else {
		e.n--
		b.entries[k] = e
	}
	b.size--
	return true
}

func (b *mapBag) Clone() *mapBag {
	nb := &mapBag{entries: make(map[string]mapEntry, len(b.entries)), size: b.size}
	for k, e := range b.entries {
		nb.entries[k] = e
	}
	return nb
}

func (b *mapBag) Key() string {
	keys := make([]string, 0, len(b.entries))
	for k := range b.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += ";" + k
		if n := b.entries[k].n; n > 1 {
			out += "*" + strconv.Itoa(n)
		}
	}
	return out
}

// matching is the map bag's MatchingBySender: the sorted senders and, per
// sender, the candidates' keys sorted.
func (b *mapBag) matching(proc ProcessID, typ string, peers []ProcessID) ([]ProcessID, map[ProcessID][]string) {
	bySender := make(map[ProcessID][]string)
	for k, e := range b.entries {
		m := e.msg
		if m.To != proc || m.Type != typ || (peers != nil && !containsProc(peers, m.From)) {
			continue
		}
		bySender[m.From] = append(bySender[m.From], k)
	}
	var senders []ProcessID
	for p, keys := range bySender {
		sort.Strings(keys)
		senders = append(senders, p)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	return senders, bySender
}

func containsProc(ps []ProcessID, p ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// diffProcs mixes one- to three-digit IDs, so decimal key order differs
// from numeric sender order, and IDs of 64 and above, which take the
// sender set's wide path.
var diffProcs = []ProcessID{0, 1, 2, 9, 10, 11, 63, 64, 65, 100, 130}

var diffTypes = []string{"A", "AB", "B"}

func randomMsg(rng *rand.Rand) Message {
	m := Message{
		From: diffProcs[rng.Intn(len(diffProcs))],
		To:   diffProcs[rng.Intn(3)],
		Type: diffTypes[rng.Intn(len(diffTypes))],
	}
	if rng.Intn(4) > 0 { // some messages carry no payload at all
		m.Payload = intPayload{V: rng.Intn(12)}
	}
	return m
}

func randomPeers(rng *rand.Rand) []ProcessID {
	if rng.Intn(3) == 0 {
		return nil
	}
	var peers []ProcessID
	for _, p := range diffProcs {
		if rng.Intn(2) == 0 {
			peers = append(peers, p)
		}
	}
	return peers
}

// checkSame compares every observable of b against the oracle o.
func checkSame(t *testing.T, step int, b *Bag, o *mapBag, rng *rand.Rand) {
	t.Helper()
	if b.Key() != o.Key() || b.Len() != o.size || b.Distinct() != len(o.entries) {
		t.Fatalf("step %d: bag %q len %d distinct %d, oracle %q len %d distinct %d",
			step, b.Key(), b.Len(), b.Distinct(), o.Key(), o.size, len(o.entries))
	}
	for k, e := range o.entries {
		if b.Count(e.msg) != e.n || b.CountKey(k) != e.n {
			t.Fatalf("step %d: count of %s = %d, oracle %d", step, k, b.Count(e.msg), e.n)
		}
	}
	var prev string
	b.EachKey(func(k string, n int) {
		if k <= prev && prev != "" {
			t.Fatalf("step %d: EachKey not ascending: %q after %q", step, k, prev)
		}
		prev = k
	})
	var m Matches
	var set SenderSet
	for q := 0; q < 4; q++ {
		proc := diffProcs[rng.Intn(3)]
		typ := diffTypes[rng.Intn(len(diffTypes))]
		peers := randomPeers(rng)
		senders, groups := o.matching(proc, typ, peers)
		b.MatchingBySender(&m, proc, typ, peers)
		if len(senders) != len(m.Senders) || (len(senders) > 0 && !reflect.DeepEqual(senders, m.Senders)) {
			t.Fatalf("step %d: senders %v, oracle %v", step, m.Senders, senders)
		}
		for g, p := range m.Senders {
			var keys []string
			for _, c := range m.Group(g) {
				if c.Key != c.Msg.Key() || c.Msg.From != p {
					t.Fatalf("step %d: candidate %q of sender %d carries message %s", step, c.Key, p, c.Msg)
				}
				keys = append(keys, c.Key)
			}
			if !reflect.DeepEqual(keys, groups[p]) {
				t.Fatalf("step %d: group of sender %d = %v, oracle %v", step, p, keys, groups[p])
			}
		}
		b.MatchingBySenderSet(&set, proc, typ, peers)
		if set.Len() != len(senders) {
			t.Fatalf("step %d: sender set has %d members, oracle %d", step, set.Len(), len(senders))
		}
		for _, p := range diffProcs {
			if set.Has(p) != (groups[p] != nil) {
				t.Fatalf("step %d: sender set Has(%d) = %v", step, p, set.Has(p))
			}
		}
		if b.HasMatching(proc, typ, peers) != (len(senders) > 0) {
			t.Fatalf("step %d: HasMatching disagrees with the oracle", step)
		}
	}
}

// TestBagDifferential drives the sorted-slice bag and the map oracle
// through the same random add, remove, clone and successor sequences.
func TestBagDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type pair struct {
			b *Bag
			o *mapBag
		}
		bags := []pair{{&Bag{}, newMapBag()}} // the zero Bag is usable
		for step := 0; step < 300; step++ {
			cur := &bags[rng.Intn(len(bags))]
			switch op := rng.Intn(10); {
			case op < 4:
				m := randomMsg(rng)
				cur.b.Add(m)
				cur.o.Add(m)
			case op < 7:
				m := randomMsg(rng)
				if got, want := cur.b.Remove(m), cur.o.Remove(m); got != want {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, oracle %v", seed, step, m, got, want)
				}
			case op < 8:
				bags = append(bags, pair{cur.b.Clone(), cur.o.Clone()})
			default:
				// successor: consume some present copies, send some
				// messages, as Execute does.
				var consumed []int
				o := cur.o.Clone()
				for i := range cur.b.entries {
					for c := 0; c < cur.b.entries[i].n && rng.Intn(3) == 0; c++ {
						consumed = append(consumed, i)
						o.Remove(cur.b.entries[i].msg)
					}
				}
				var sends []Message
				for k := rng.Intn(5); k > 0; k-- {
					m := randomMsg(rng)
					if rng.Intn(4) == 0 && len(sends) > 0 {
						m = sends[0] // a duplicate send
					}
					sends = append(sends, m)
					o.Add(m)
				}
				nb := cur.b.successor(consumed, sends)
				bags = append(bags, pair{&nb, o})
			}
			checkSame(t, step, cur.b, cur.o, rng)
			last := bags[len(bags)-1]
			checkSame(t, step, last.b, last.o, rng)
		}
		// Every bag, clones included, must have stayed independent.
		for i := range bags {
			checkSame(t, -1, bags[i].b, bags[i].o, rng)
		}
	}
}
