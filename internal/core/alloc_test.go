package core_test

import (
	"testing"

	"mpbasset/internal/core"
	"mpbasset/internal/protocols/paxos"
)

// fixedPaxosState returns Paxos (2,3,1) after five first-choice steps: a
// READ_REPL quorum of two is pending for proposer 0, beside READs for the
// acceptors.
func fixedPaxosState(t *testing.T) (*core.Protocol, *core.State) {
	t.Helper()
	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if s, err = p.Execute(s, p.Enabled(s)[0]); err != nil {
			t.Fatal(err)
		}
	}
	s.Key()
	return p, s
}

// TestHotPathAllocations guards the allocation behaviour the search hot
// path depends on.
func TestHotPathAllocations(t *testing.T) {
	p, s := fixedPaxosState(t)
	var quorum *core.Transition
	for _, tr := range p.Transitions {
		if tr.Proc == 0 && tr.MsgType == paxos.MsgReadRepl {
			quorum = tr
		}
	}
	if quorum == nil || !p.StructurallyEnabled(quorum, s) {
		t.Fatal("fixture state has no pending READ_REPL quorum")
	}
	var senders core.SenderSet
	if a := testing.AllocsPerRun(100, func() {
		s.Msgs.MatchingBySenderSet(&senders, quorum.Proc, quorum.MsgType, quorum.Peers)
	}); a != 0 {
		t.Errorf("sender-set query allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { p.StructurallyEnabled(quorum, s) }); a != 0 {
		t.Errorf("StructurallyEnabled allocates %.1f objects/op, want 0", a)
	}
	// The events, their messages and their message keys: three arrays
	// however many events there are.
	events := p.Enabled(s)
	if a := testing.AllocsPerRun(100, func() { p.Enabled(s) }); a > 3 {
		t.Errorf("Enabled allocates %.1f objects/op for %d events, want at most 3", a, len(events))
	}
}
