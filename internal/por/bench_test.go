package por

import (
	"testing"

	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/refine"
)

// BenchmarkAnalysisPrecomputation measures MP-LPOR's one-time cost of
// precomputing the static relations, for the unsplit and combined-split
// Paxos models (split models have more transitions).
func BenchmarkAnalysisPrecomputation(b *testing.B) {
	base, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []refine.Strategy{refine.None, refine.Combined} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			p, err := refine.Split(base, strat)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewAnalysis(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStubbornClosure measures the per-state closure computation.
func BenchmarkStubbornClosure(b *testing.B) {
	p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAnalysis(p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.InitialState()
	if err != nil {
		b.Fatal(err)
	}
	// Advance one PROPOSE so the state has pending messages.
	s, err = p.Execute(s, p.Enabled(s)[0])
	if err != nil {
		b.Fatal(err)
	}
	sc := newScratch(a)
	seed := -1
	for _, ev := range p.Enabled(s) {
		setBit(sc.enabled, ev.T.Index())
		if seed < 0 {
			seed = ev.T.Index()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(sc.known) // a fresh state for every closure
		a.stubborn(seed, s, sc, closureConfig{})
	}
}
