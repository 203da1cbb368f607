package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mpbasset/internal/core"
	"mpbasset/internal/explore"
)

// layer names a program layer whose time the traced run attributes. The
// hook layers are timed around the public hooks the benchmark wraps;
// layerEnabled and layerExecute have no hook of their own and are
// recovered from the intervals between hook calls (see gap).
type layer int

const (
	layerEnabled layer = iota
	layerPOR
	layerExecute
	layerKey
	layerStore
	layerInvariant
	layerGuard
	layerApply
	numLayers
)

var epoch = time.Now()

// now reads the monotonic clock in nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// tracer accumulates busy time and call counts per layer. Counters are
// atomic because ParallelBFS calls the canon, store and invariant hooks from
// several workers at once. The interval attribution (last, lastExit) is
// only sound on a single-goroutine engine, so it runs only when seq is set.
type tracer struct {
	seq   bool
	busy  [numLayers]atomic.Int64
	calls [numLayers]atomic.Int64

	storeKeys, storeHits        atomic.Int64
	enabledEvents, chosenEvents atomic.Int64
	reducedExpansions           atomic.Int64

	last     int64
	lastExit layer
	hasLast  bool
}

// gap returns the layer that owns the interval between the exit of prev's
// hook and the entry of next's, on the sequential DFS engine:
//   - invariant exit → Expand entry: the engine computed Protocol.Enabled;
//   - Expand or Canon exit → Canon entry: it ran Protocol.Execute on the
//     next chosen event.
//
// Every other interval is engine orchestration and stays in the residual.
func gap(prev, next layer) (layer, bool) {
	switch {
	case prev == layerInvariant && next == layerPOR:
		return layerEnabled, true
	case (prev == layerPOR || prev == layerKey) && next == layerKey:
		return layerExecute, true
	}
	return 0, false
}

func (t *tracer) enter(l layer) int64 {
	start := now()
	if t.seq && t.hasLast {
		if g, ok := gap(t.lastExit, l); ok {
			t.busy[g].Add(start - t.last)
			t.calls[g].Add(1)
		}
	}
	return start
}

func (t *tracer) exit(l layer, start int64) {
	end := now()
	t.busy[l].Add(end - start)
	t.calls[l].Add(1)
	if t.seq {
		t.last, t.lastExit, t.hasLast = end, l, true
	}
}

// canon wraps the default canonicalizer, State.Key.
func (t *tracer) canon(s *core.State) string {
	start := t.enter(layerKey)
	k := s.Key()
	t.exit(layerKey, start)
	return k
}

// invariant wraps p's invariant in place.
func (t *tracer) invariant(p *core.Protocol) {
	inv := p.Invariant
	if inv == nil {
		return
	}
	p.Invariant = func(s *core.State) error {
		start := t.enter(layerInvariant)
		err := inv(s)
		t.exit(layerInvariant, start)
		return err
	}
}

// guardsAndApplies wraps every transition's Guard and Apply in place. Nil
// hooks stay nil: the engines treat a nil Guard as "always true", so a
// wrapper would not change behavior, but it would time a call the untraced
// run never makes.
func (t *tracer) guardsAndApplies(p *core.Protocol) {
	for _, tr := range p.Transitions {
		if g := tr.Guard; g != nil {
			tr.Guard = func(local core.LocalState, msgs []core.Message) bool {
				start := t.enter(layerGuard)
				ok := g(local, msgs)
				t.exit(layerGuard, start)
				return ok
			}
		}
		if a := tr.Apply; a != nil {
			tr.Apply = func(c *core.Ctx) {
				start := t.enter(layerApply)
				a(c)
				t.exit(layerApply, start)
			}
		}
	}
}

// tracedExpander times Expand and counts how much the expander reduced.
// Only the DFS engine may see it: BFS and ParallelBFS type-assert
// explore.FullExpander, and a wrapper would hide it from them.
type tracedExpander struct {
	inner explore.Expander
	t     *tracer
}

func (e tracedExpander) Expand(s *core.State, enabled []core.Event, prov explore.Proviso) []core.Event {
	start := e.t.enter(layerPOR)
	chosen := e.inner.Expand(s, enabled, prov)
	e.t.exit(layerPOR, start)
	e.t.enabledEvents.Add(int64(len(enabled)))
	e.t.chosenEvents.Add(int64(len(chosen)))
	if len(chosen) < len(enabled) {
		e.t.reducedExpansions.Add(1)
	}
	return chosen
}

// Store capabilities: the optional interfaces an engine looks for on its
// visited store. A wrapper that hid one would silently send the engine
// down another path (no proviso probe, a mutex instead of the concurrent
// store, lost spill or bitstate figures), so wrapStore refuses any store
// whose capability set its wrappers do not reproduce exactly.
const (
	capHas = 1 << iota
	capBatch
	capConcurrent
	capSpill
	capBitstate
	capFailable
)

func storeCaps(s explore.Store) int {
	c := 0
	if _, ok := s.(explore.HasStore); ok {
		c |= capHas
	}
	if _, ok := s.(explore.BatchStore); ok {
		c |= capBatch
	}
	if _, ok := s.(explore.ConcurrentStore); ok {
		c |= capConcurrent
	}
	if _, ok := s.(explore.SpillReporter); ok {
		c |= capSpill
	}
	if _, ok := s.(explore.BitstateReporter); ok {
		c |= capBitstate
	}
	if _, ok := s.(explore.FailableStore); ok {
		c |= capFailable
	}
	return c
}

type tracedStore struct {
	inner explore.Store
	t     *tracer
}

func (s *tracedStore) Seen(key string) bool {
	start := s.t.enter(layerStore)
	hit := s.inner.Seen(key)
	s.t.exit(layerStore, start)
	s.t.storeKeys.Add(1)
	if hit {
		s.t.storeHits.Add(1)
	}
	return hit
}

func (s *tracedStore) Len() int { return s.inner.Len() }

// tracedHasStore mirrors ExactStore and HashStore.
type tracedHasStore struct{ tracedStore }

func (s *tracedHasStore) Has(key string) bool {
	start := s.t.enter(layerStore)
	ok := s.inner.(explore.HasStore).Has(key)
	s.t.exit(layerStore, start)
	return ok
}

// tracedConcurrentStore mirrors ShardedStore.
type tracedConcurrentStore struct{ tracedHasStore }

func (s *tracedConcurrentStore) SeenBatch(keys []string) []bool {
	start := s.t.enter(layerStore)
	hits := s.inner.(explore.BatchStore).SeenBatch(keys)
	s.t.exit(layerStore, start)
	n := int64(0)
	for _, h := range hits {
		if h {
			n++
		}
	}
	s.t.storeKeys.Add(int64(len(keys)))
	s.t.storeHits.Add(n)
	return hits
}

func (s *tracedConcurrentStore) ConcurrencySafe() {}

// tracedSpillStore mirrors SpillStore.
type tracedSpillStore struct{ tracedConcurrentStore }

func (s *tracedSpillStore) SpillStats() (int, int64, int64) {
	return s.inner.(explore.SpillReporter).SpillStats()
}

func (s *tracedSpillStore) Err() error { return s.inner.(explore.FailableStore).Err() }

// tracedBitstateStore mirrors BitstateStore.
type tracedBitstateStore struct{ tracedConcurrentStore }

func (s *tracedBitstateStore) BitstateStats() (float64, float64) {
	return s.inner.(explore.BitstateReporter).BitstateStats()
}

// wrapStore returns a timing wrapper with exactly inner's capabilities.
func (t *tracer) wrapStore(inner explore.Store) (explore.Store, error) {
	base := tracedStore{inner: inner, t: t}
	conc := tracedConcurrentStore{tracedHasStore{base}}
	for _, w := range []explore.Store{
		&base,
		&tracedHasStore{base},
		&conc,
		&tracedSpillStore{conc},
		&tracedBitstateStore{conc},
	} {
		if storeCaps(w) == storeCaps(inner) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("no timing wrapper reproduces the interfaces of store %T", inner)
}
