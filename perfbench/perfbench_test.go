package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"mpbasset/internal/explore"
)

// Every store of package explore must come out of wrapStore with the same
// optional interfaces it went in with, or the traced run would take another
// engine path than the untraced one.
func TestWrapStoreKeepsInterfaces(t *testing.T) {
	spill, err := explore.NewSpillStore(explore.SpillConfig{BudgetBytes: 1 << 20, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	for _, s := range []explore.Store{
		explore.NewExactStore(),
		explore.NewHashStore(),
		explore.NewShardedExactStore(),
		explore.NewShardedHashStore(),
		spill,
		explore.NewBitstateStore(1<<10, 0),
	} {
		w, err := (&tracer{}).wrapStore(s)
		if err != nil {
			t.Errorf("%T: %v", s, err)
			continue
		}
		if got, want := storeCaps(w), storeCaps(s); got != want {
			t.Errorf("%T: wrapper capabilities %b, store %b", s, got, want)
		}
	}
	if _, err := (&tracer{}).wrapStore(batchOnly{explore.NewHashStore()}); err == nil {
		t.Error("a store with an unmirrored interface set was wrapped")
	}
}

type batchOnly struct{ *explore.HashStore }

func (batchOnly) SeenBatch(keys []string) []bool { return make([]bool, len(keys)) }

// On a sequential workload every hook count repeats exactly between two
// runs, and so do allocations up to map growth: Go seeds each map's hash
// randomly, which moves a few dozen of the run's twelve million
// allocations. This is what makes allocs_per_state a low-noise complement
// to wall time.
func TestSequentialCountsRepeat(t *testing.T) {
	w, err := lookup("paxos-spor")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w}
	var mallocs []uint64
	var runs []*tracedRun
	for i := 0; i < 2; i++ {
		s, ok := b.check(0)
		if !ok {
			t.Fatal("untraced run missed its pin")
		}
		mallocs = append(mallocs, s.mallocs)
		tr, ok := b.tracedRun(0)
		if !ok {
			t.Fatal("traced run missed its pin")
		}
		runs = append(runs, tr)
	}
	if d := math.Abs(float64(mallocs[0]) - float64(mallocs[1])); d > 2e-5*float64(mallocs[0]) {
		t.Errorf("allocations differ by more than 0.002%% between runs: %d vs %d", mallocs[0], mallocs[1])
	}
	a, c := runs[0].t, runs[1].t
	for l := layer(0); l < numLayers; l++ {
		if x, y := a.calls[l].Load(), c.calls[l].Load(); x != y {
			t.Errorf("layer %d: %d vs %d calls", l, x, y)
		}
	}
	for _, p := range [][2]int64{
		{a.storeKeys.Load(), c.storeKeys.Load()},
		{a.storeHits.Load(), c.storeHits.Load()},
		{a.enabledEvents.Load(), c.enabledEvents.Load()},
		{a.chosenEvents.Load(), c.chosenEvents.Load()},
		{a.reducedExpansions.Load(), c.reducedExpansions.Load()},
	} {
		if p[0] != p[1] {
			t.Errorf("counter differs between runs: %d vs %d", p[0], p[1])
		}
	}
	if a.calls[layerEnabled].Load() == 0 || a.calls[layerExecute].Load() == 0 {
		t.Error("no interval was attributed to core.enabled or core.execute")
	}
}

// The traced engine of every workload, at every worker count a run uses,
// reproduces the pinned result of the facade.
func TestTracedRunsMatchPins(t *testing.T) {
	for _, w := range workloads {
		b := &bench{w: w}
		workers := []int{0}
		if w.opts.Workers > 0 {
			workers = append(workers, w.opts.Workers)
		}
		for _, n := range workers {
			if _, ok := b.tracedRun(n); !ok {
				t.Errorf("%s, %d workers: traced run missed its pin", w.name, n)
			}
		}
	}
}

func TestGapAttribution(t *testing.T) {
	tr := &tracer{seq: true}
	step := func(l layer) { tr.exit(l, tr.enter(l)) }
	step(layerInvariant)
	step(layerPOR) // invariant exit → Expand entry: Enabled
	step(layerKey) // Expand exit → Canon entry: Execute
	step(layerKey) // Canon exit → Canon entry: Execute
	step(layerStore)
	step(layerInvariant)
	step(layerStore)
	if got := tr.calls[layerEnabled].Load(); got != 1 {
		t.Errorf("core.enabled intervals = %d, want 1", got)
	}
	if got := tr.calls[layerExecute].Load(); got != 2 {
		t.Errorf("core.execute intervals = %d, want 2", got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_faststr", "mpbasset/internal/core.(*Bag).MatchingBySender", "mpbasset/internal/por.(*Expander).growthFeeders", "mpbasset/internal/explore.DFS.func2"}, "core.enabled"},
		{[]string{"mpbasset/internal/por.(*Expander).Expand", "mpbasset/internal/explore.DFS.func2"}, "por"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "mpbasset/internal/core.(*State).Key"}, "runtime.gc"},
		{[]string{"mpbasset/internal/protocols/paxos.consensusInvariant.func1", "main.(*tracer).invariant.func1", "mpbasset/internal/core.(*Protocol).CheckInvariant", "mpbasset/internal/explore.DFS"}, "protocols.invariant"},
		{[]string{"time.Now", "main.(*tracer).canon", "mpbasset/internal/explore.execAll"}, "explore.engine"},
		{[]string{"mpbasset/internal/explore.fingerprint", "mpbasset/internal/explore.(*HashStore).Seen"}, "explore.store"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real profile of a busy loop decodes and folds to a nonzero total.
func TestFoldProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	fold := map[string]float64{}
	if err := foldProfile(buf.Bytes(), fold); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range profileLayers {
		total += fold[l]
	}
	if total == 0 {
		t.Errorf("no CPU time folded from a 300ms busy loop (%d iterations)", x)
	}
}
