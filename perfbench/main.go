// Command perfbench is the repository's benchmark: it runs one fixed
// model-checking workload through mpbasset.Check for a given number of
// seconds, checks every result against its pinned outcome, and prints one
// JSON object as its last line of output. With --trace 1 it reports a
// per-layer split instead: it also runs the workload's engine with timing
// wrappers around the public hooks, and folds a CPU profile of the
// untraced passes into the same layers. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"mpbasset"
	"mpbasset/internal/explore"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench drives one workload and counts its operations: every Check call
// and every traced engine run is one, and an error or a pin mismatch
// fails it.
type bench struct {
	w         *workload
	rng       *rand.Rand
	dur       time.Duration
	attempted int
	failed    int
}

func main() {
	name := flag.String("workload", "", "workload to run: paxos-spor, storage-unreduced, paxos-bfs-par or paxos-dpor")
	seed := flag.Int64("seed", 1, "seed for the order of the passes within a run")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	profileDir := flag.String("profile-dir", "", "directory for the traced run's CPU profile; empty writes none")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	b := &bench{w: w, rng: rand.New(rand.NewSource(*seed)), dur: time.Duration(*seconds) * time.Second}
	var m map[string]metric
	if *trace == 1 {
		m, err = b.traced(*profileDir)
	} else {
		m, err = b.untraced()
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// passes returns the worker counts of one round: the workload's own pass,
// preceded or followed by a sequential pass when the workload is parallel.
// The seed decides the order, so neither engine always runs on a warmer
// machine.
func (b *bench) passes() []int {
	if b.w.opts.Workers == 0 {
		return []int{0}
	}
	if b.rng.Intn(2) == 0 {
		return []int{0, b.w.opts.Workers}
	}
	return []int{b.w.opts.Workers, 0}
}

// rounds paces a run: it starts another round only while one more round,
// as long as the average so far, still ends within the run's duration.
// The first round always runs.
type rounds struct {
	dur   time.Duration
	start time.Time
	n     int
}

func (b *bench) rounds() *rounds { return &rounds{dur: b.dur} }

func (r *rounds) next() bool {
	if r.n == 0 {
		r.start = time.Now()
		r.n++
		return true
	}
	elapsed := time.Since(r.start)
	if elapsed+elapsed/time.Duration(r.n) > r.dur {
		return false
	}
	r.n++
	return true
}

// result records one operation's outcome; it reports whether it passed.
func (b *bench) result(r *explore.Result, err error) bool {
	b.attempted++
	if err = b.w.pin.check(r, err); err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.w.name, err)
		return false
	}
	return true
}

// check measures one facade call on a freshly built protocol.
func (b *bench) check(workers int) (sample, bool) {
	p, err := b.w.build()
	if err != nil {
		return sample{}, b.result(nil, err)
	}
	opts := b.w.opts
	opts.Workers = workers
	var r *explore.Result
	s, err := measure(func() error {
		var err error
		r, err = mpbasset.Check(p, opts)
		return err
	})
	return s, b.result(r, err)
}

// setupTimes times the workload's set-up reps times, in seconds. Runs
// take a batch every round, so the set-up median spans the whole run.
func (b *bench) setupTimes(reps int) ([]float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		if _, err := b.w.setup(); err != nil {
			return nil, err
		}
		ts[i] = time.Since(start).Seconds()
	}
	return ts, nil
}

// untraced reports the end-to-end metrics. The first round warms the
// process up (heap growth, caches) and is left out of the medians when
// more rounds follow; its operations are still checked.
func (b *bench) untraced() (map[string]metric, error) {
	type round struct {
		own      sample
		speedup  float64
		setups   []float64
		complete bool
	}
	var rs []round
	for r := b.rounds(); r.next(); {
		setups, err := b.setupTimes(51)
		if err != nil {
			return nil, err
		}
		rd := round{setups: setups, complete: true}
		walls := map[int]time.Duration{}
		for _, workers := range b.passes() {
			s, passed := b.check(workers)
			rd.complete = rd.complete && passed
			walls[workers] = s.wall
			if workers == b.w.opts.Workers {
				rd.own = s
			}
		}
		if b.w.opts.Workers > 0 {
			rd.speedup = walls[0].Seconds() / walls[b.w.opts.Workers].Seconds()
		}
		rs = append(rs, rd)
	}
	if len(rs) > 1 {
		rs = rs[1:]
	}
	var own []sample
	var speedups, setups []float64
	for _, rd := range rs {
		setups = append(setups, rd.setups...)
		if rd.complete {
			own = append(own, rd.own)
			speedups = append(speedups, rd.speedup)
		}
	}
	states := float64(b.w.pin.States)
	m := map[string]metric{
		"wall_s":                {medianOf(own, func(s sample) float64 { return s.wall.Seconds() }), "s"},
		"states_per_s":          {medianOf(own, func(s sample) float64 { return states / s.wall.Seconds() }), "1/s"},
		"allocs_per_state":      {medianOf(own, func(s sample) float64 { return float64(s.mallocs) / states }), "allocs/state"},
		"alloc_bytes_per_state": {medianOf(own, func(s sample) float64 { return float64(s.allocBytes) / states }), "B/state"},
		"peak_rss_mb":           {medianOf(own, func(s sample) float64 { return float64(s.peakRSSKiB) / 1024 }), "MB"},
		"setup_s":               {median(setups), "s"},
		// A sequential workload runs one engine on one worker: its
		// speedup over the sequential engine is 1 by definition.
		"speedup": {1, "x"},
	}
	if b.w.opts.Workers > 0 {
		m["speedup"] = metric{median(speedups), "x"}
	}
	return m, nil
}

// traced reports the per-layer metrics. Each round runs the workload's
// passes once untraced under the CPU profiler and once through the traced
// engine; every metric is the median over rounds, the profile fold the sum.
func (b *bench) traced(profileDir string) (map[string]metric, error) {
	var rounds []map[string]float64
	fold := map[string]float64{}
	var lastProfile []byte
	for r := b.rounds(); r.next(); {
		plain := map[int]sample{}
		traced := map[int]*tracedRun{}
		ok := true
		for _, workers := range b.passes() {
			var prof bytes.Buffer
			profiled := workers == b.w.opts.Workers
			if profiled {
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return nil, err
				}
			}
			s, passed := b.check(workers)
			if profiled {
				pprof.StopCPUProfile()
				if err := foldProfile(prof.Bytes(), fold); err != nil {
					return nil, err
				}
				lastProfile = prof.Bytes()
			}
			ok = ok && passed
			plain[workers] = s
		}
		for _, workers := range b.passes() {
			tr, passed := b.tracedRun(workers)
			ok = ok && passed
			traced[workers] = tr
		}
		if ok {
			rounds = append(rounds, b.layerMetrics(plain, traced))
		}
	}
	if profileDir != "" && lastProfile != nil {
		path := filepath.Join(profileDir, b.w.name+".cpu.pprof")
		if err := os.WriteFile(path, lastProfile, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile of the last untraced pass written to", path)
	}
	m := map[string]metric{}
	for _, d := range layerMetricDefs {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = r[d.name]
		}
		m[d.name] = metric{median(vs), d.unit}
	}
	total := 0.0
	for _, l := range profileLayers {
		total += fold[l]
	}
	for _, l := range profileLayers {
		share := 0.0
		if total > 0 {
			share = fold[l] / total
		}
		m["profile."+l+".share"] = metric{share, "ratio"}
	}
	return m, nil
}
