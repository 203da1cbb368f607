package por

import (
	"testing"

	"mpbasset/internal/protocols/paxos"
)

// TestExpandAllocations guards Expand's allocation budget on a fixed Paxos
// (2,3,1) state, the first one along the first-choice path that Expand
// reduces: the closure works in cached scratch, so only the ample set it
// returns is allocated.
func TestExpandAllocations(t *testing.T) {
	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExpander(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	enabled := p.Enabled(s)
	for len(exp.Expand(s, enabled, nil)) == len(enabled) {
		if s, err = p.Execute(s, enabled[0]); err != nil {
			t.Fatal(err)
		}
		if enabled = p.Enabled(s); len(enabled) == 0 {
			t.Fatal("the first-choice path reaches no reduced state")
		}
	}
	if a := testing.AllocsPerRun(100, func() { exp.Expand(s, enabled, nil) }); a > 1 {
		t.Errorf("Expand allocates %.1f objects/op, want at most 1", a)
	}
}
