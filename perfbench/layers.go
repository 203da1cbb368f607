package main

import (
	"time"

	"mpbasset"
	"mpbasset/internal/explore"
)

// tracedRun is one engine run under the timing wrappers.
type tracedRun struct {
	t    *tracer
	wall time.Duration
}

// tracedRun builds a fresh protocol and runs the workload's engine with the
// given worker count under a new tracer, prepared and timed like check.
func (b *bench) tracedRun(workers int) (*tracedRun, bool) {
	p, err := b.w.build()
	if err != nil {
		return nil, b.result(nil, err)
	}
	t := &tracer{seq: workers == 0}
	var r *explore.Result
	s, err := measure(func() error {
		var err error
		r, err = b.w.traced(p, t, workers)
		return err
	})
	return &tracedRun{t: t, wall: s.wall}, b.result(r, err)
}

// hookCalls counts the per-state hook invocations of a run: canon calls,
// invariant calls and store probes (a batched insert counts each key).
func (tr *tracedRun) hookCalls() float64 {
	t := tr.t
	return float64(t.calls[layerKey].Load() + t.calls[layerInvariant].Load() + t.storeKeys.Load())
}

// layerMetricDefs lists the traced run's metrics other than the profile
// fold. A layer a workload's engine does not separate reads 0.
var layerMetricDefs = []struct{ name, unit string }{
	{"core.enabled.share", "ratio"},
	{"core.enabled.ns_per_state", "ns"},
	{"por.share", "ratio"},
	{"por.ns_per_call", "ns"},
	{"por.ample_ratio", "ratio"},
	{"por.reduced_frac", "ratio"},
	{"core.execute.share", "ratio"},
	{"core.execute.ns_per_event", "ns"},
	{"core.key.share", "ratio"},
	{"core.key.ns_per_call", "ns"},
	{"explore.store.share", "ratio"},
	{"explore.store.ns_per_call", "ns"},
	{"explore.store.hit_ratio", "ratio"},
	{"protocols.invariant.share", "ratio"},
	{"core.guard.share", "ratio"},
	{"core.apply.share", "ratio"},
	{"explore.engine.share", "ratio"},
	{"dpor.engine.share", "ratio"},
	{"explore.parallel.cpu_util", "ratio"},
	{"explore.parallel.extra_calls", "ratio"},
	{"explore.parallel.hook_busy_s", "s"},
	{"runtime.gc.cpu_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// layerMetrics derives one round's per-layer metrics from the untraced
// (plain) and traced passes, keyed by worker count. Shares are of the
// worker-seconds the workload's own traced pass had: its wall time times
// its worker count.
func (b *bench) layerMetrics(plain map[int]sample, traced map[int]*tracedRun) map[string]float64 {
	w := b.w.opts.Workers
	tr, t := traced[w], traced[w].t
	avail := float64(tr.wall) * float64(max(w, 1))
	busy := func(l layer) float64 { return float64(t.busy[l].Load()) }
	calls := func(l layer) int64 { return t.calls[l].Load() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"core.enabled.ns_per_state": ratio(busy(layerEnabled), float64(b.w.pin.States)),
		"por.ns_per_call":           ratio(busy(layerPOR), float64(calls(layerPOR))),
		"por.ample_ratio":           ratio(float64(t.chosenEvents.Load()), float64(t.enabledEvents.Load())),
		"por.reduced_frac":          ratio(float64(t.reducedExpansions.Load()), float64(calls(layerPOR))),
		"core.execute.ns_per_event": ratio(busy(layerExecute), float64(calls(layerExecute))),
		"core.key.ns_per_call":      ratio(busy(layerKey), float64(calls(layerKey))),
		"explore.store.ns_per_call": ratio(busy(layerStore), float64(calls(layerStore))),
		"explore.store.hit_ratio":   ratio(float64(t.storeHits.Load()), float64(t.storeKeys.Load())),
	}
	residual := 1.0
	for l, name := range [numLayers]string{
		layerEnabled:   "core.enabled.share",
		layerPOR:       "por.share",
		layerExecute:   "core.execute.share",
		layerKey:       "core.key.share",
		layerStore:     "explore.store.share",
		layerInvariant: "protocols.invariant.share",
		layerGuard:     "core.guard.share",
		layerApply:     "core.apply.share",
	} {
		m[name] = busy(layer(l)) / avail
		residual -= m[name]
	}
	if b.w.opts.Search == mpbasset.SearchDPOR {
		m["dpor.engine.share"] = residual
	} else {
		m["explore.engine.share"] = residual
	}
	own := plain[w]
	m["runtime.gc.cpu_share"] = ratio(own.gcCPU, own.busy)
	m["trace.overhead"] = ratio(tr.wall.Seconds(), own.wall.Seconds())
	if w > 0 {
		m["explore.parallel.cpu_util"] = own.cpu.Seconds() / (own.wall.Seconds() * float64(w))
		m["explore.parallel.extra_calls"] = ratio(tr.hookCalls(), traced[0].hookCalls()) - 1
		m["explore.parallel.hook_busy_s"] = (busy(layerKey) + busy(layerStore) + busy(layerInvariant)) / 1e9
	}
	return m
}
