package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

type intPayload struct{ V int }

func (p intPayload) Key() string { return strconv.Itoa(p.V) }

func msg(from, to ProcessID, typ string, v int) Message {
	return Message{From: from, To: to, Type: typ, Payload: intPayload{V: v}}
}

func TestBagAddRemove(t *testing.T) {
	b := NewBag()
	m1 := msg(0, 1, "A", 7)
	if b.Len() != 0 || b.Distinct() != 0 {
		t.Fatalf("new bag not empty: len=%d distinct=%d", b.Len(), b.Distinct())
	}
	b.Add(m1)
	b.Add(m1)
	if b.Len() != 2 || b.Distinct() != 1 || b.Count(m1) != 2 {
		t.Fatalf("after two adds: len=%d distinct=%d count=%d", b.Len(), b.Distinct(), b.Count(m1))
	}
	if !b.Remove(m1) {
		t.Fatal("remove of present message reported absent")
	}
	if b.Len() != 1 || b.Count(m1) != 1 {
		t.Fatalf("after remove: len=%d count=%d", b.Len(), b.Count(m1))
	}
	if !b.Remove(m1) || b.Len() != 0 || b.Distinct() != 0 {
		t.Fatal("bag not empty after removing both copies")
	}
	if b.Remove(m1) {
		t.Fatal("remove of absent message reported present")
	}
}

func TestBagCloneIndependence(t *testing.T) {
	b := NewBag()
	m1, m2 := msg(0, 1, "A", 1), msg(1, 0, "B", 2)
	b.Add(m1)
	c := b.Clone()
	c.Add(m2)
	c.Remove(m1)
	if b.Count(m1) != 1 || b.Count(m2) != 0 {
		t.Fatalf("mutating clone affected original: %s", b.Key())
	}
	if c.Count(m1) != 0 || c.Count(m2) != 1 {
		t.Fatalf("clone state wrong: %s", c.Key())
	}
}

func TestBagKeyDeterministicUnderPermutation(t *testing.T) {
	// Property: inserting the same multiset in any order yields the same
	// canonical key.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs := make([]Message, 0, int(n%12)+2)
		for i := 0; i < cap(msgs); i++ {
			msgs = append(msgs, msg(ProcessID(rng.Intn(3)), ProcessID(rng.Intn(3)),
				string(rune('A'+rng.Intn(3))), rng.Intn(4)))
		}
		b1 := NewBag()
		for _, m := range msgs {
			b1.Add(m)
		}
		b2 := NewBag()
		for _, i := range rng.Perm(len(msgs)) {
			b2.Add(msgs[i])
		}
		return b1.Key() == b2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBagMatchingBySender(t *testing.T) {
	b := NewBag()
	b.Add(msg(0, 5, "X", 1))
	b.Add(msg(1, 5, "X", 2))
	b.Add(msg(1, 5, "X", 3)) // second distinct candidate from sender 1
	b.Add(msg(2, 5, "X", 4))
	b.Add(msg(1, 5, "Y", 9)) // wrong type
	b.Add(msg(1, 6, "X", 9)) // wrong recipient

	var m Matches
	b.MatchingBySender(&m, 5, "X", nil)
	if want := []ProcessID{0, 1, 2}; !reflect.DeepEqual(m.Senders, want) {
		t.Fatalf("senders = %v, want %v", m.Senders, want)
	}
	if len(m.Group(1)) != 2 {
		t.Fatalf("sender 1 candidates = %d, want 2", len(m.Group(1)))
	}
	// Peer restriction.
	b.MatchingBySender(&m, 5, "X", []ProcessID{1, 2})
	if want := []ProcessID{1, 2}; !reflect.DeepEqual(m.Senders, want) {
		t.Fatalf("peer-restricted senders = %v, want %v", m.Senders, want)
	}
	if !b.HasMatching(5, "X", nil) || b.HasMatching(7, "X", nil) {
		t.Fatal("HasMatching wrong")
	}
}

func TestBagMultiplicityInKey(t *testing.T) {
	b1, b2 := NewBag(), NewBag()
	m := msg(0, 1, "A", 1)
	b1.Add(m)
	b2.Add(m)
	b2.Add(m)
	if b1.Key() == b2.Key() {
		t.Fatal("multiplicity not reflected in canonical key")
	}
}

func TestSenders(t *testing.T) {
	msgs := []Message{msg(2, 0, "A", 1), msg(1, 0, "A", 2), msg(2, 0, "A", 3)}
	if got, want := Senders(msgs), []ProcessID{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Senders = %v, want %v", got, want)
	}
	if got := Senders(nil); len(got) != 0 {
		t.Fatalf("Senders(nil) = %v", got)
	}
}
