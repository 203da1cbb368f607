package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/mptest"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
)

// reachableKeyDigest explores every reachable state of p breadth-first and
// returns the SHA-256 of the sorted State.Key strings, each prefixed by its
// length, together with the state count.
func reachableKeyDigest(t *testing.T, p *core.Protocol) (string, int) {
	t.Helper()
	init, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{init.Key(): true}
	queue := []*core.State{init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, ev := range p.Enabled(s) {
			ns, err := p.Execute(s, ev)
			if err != nil {
				t.Fatal(err)
			}
			if k := ns.Key(); !seen[k] {
				seen[k] = true
				queue = append(queue, ns)
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var n [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil)), len(keys)
}

// TestStateKeyGolden pins the exact bytes of State.Key over two whole
// reachable state spaces. Collapse compression, the spill store, the
// bitstate store and symmetry reduction all consume these bytes, so any
// change to the bag encoding or the key layout must show up here, not only
// as a moved state count.
func TestStateKeyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("explores two full state spaces")
	}
	cases := []struct {
		name   string
		build  func() (*core.Protocol, error)
		states int
		digest string
	}{
		{
			name: "paxos(2,3,1)-quorum",
			build: func() (*core.Protocol, error) {
				return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
			},
			states: 25555,
			digest: "84f7f7871ff668434fa11d429ef604096d5c5e6fa3db7b2cfe80cb4d5fa7dff7",
		},
		{
			name: "storage(3,1)-quorum",
			build: func() (*core.Protocol, error) {
				return storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelQuorum})
			},
			states: 14191,
			digest: "1774a2066be9afa11b0fca04c3d243add8faf522e13d3bbc3189233f01daf5d8",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			digest, states := reachableKeyDigest(t, p)
			if states != c.states || digest != c.digest {
				t.Fatalf("%d states, key digest %s; pinned %d states, %s", states, digest, c.states, c.digest)
			}
		})
	}
}

// TestStateKeyReuseMatchesScratch follows random Execute chains and
// requires the key a successor builds from its parent's key to equal the
// key built from scratch, component by component. Parents are keyed before
// most steps only, so both construction paths run.
func TestStateKeyReuseMatchesScratch(t *testing.T) {
	var ps []*core.Protocol
	for seed := int64(0); seed < 60; seed++ {
		p, err := mptest.Random(mptest.GenConfig{Seed: seed, Quorums: true, AnyQuorums: seed%2 == 0, Cycles: seed%3 == 0, MaxRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, build := range []func() (*core.Protocol, error){
		func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, MaxBallots: 2})
		},
		func() (*core.Protocol, error) {
			return storage.New(storage.Config{Objects: 3, Readers: 2})
		},
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for pi, p := range ps {
		rng := rand.New(rand.NewSource(int64(pi)))
		for chain := 0; chain < 20; chain++ {
			s, err := p.InitialState()
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40; step++ {
				if rng.Intn(4) > 0 {
					s.Key()
				}
				evs := p.Enabled(s)
				if len(evs) == 0 {
					break
				}
				ns, err := p.Execute(s, evs[rng.Intn(len(evs))])
				if err != nil {
					t.Fatal(err)
				}
				fresh := core.NewState(ns.Locals, ns.Msgs)
				if ns.Key() != fresh.Key() {
					t.Fatalf("%s step %d: key %q, from scratch %q", p.Name, step, ns.Key(), fresh.Key())
				}
				locals, bag := ns.ComponentKeys()
				for i, l := range ns.Locals {
					if locals[i] != l.Key() {
						t.Fatalf("%s step %d: component %d = %q, local key %q", p.Name, step, i, locals[i], l.Key())
					}
				}
				if bag != ns.Msgs.Key() {
					t.Fatalf("%s step %d: bag component %q, bag key %q", p.Name, step, bag, ns.Msgs.Key())
				}
				s = ns
			}
		}
	}
}
