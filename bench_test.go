// Benchmarks regenerating the paper's evaluation: every row and column of
// Table I (quorum semantics) and Table II (transition refinement), plus
// ablations over the design choices called out in DESIGN.md (seed
// heuristics, best-seed search, state stores, symmetry reduction) and the
// store-tier sweep (collapse compression, lossy bitstate hashing).
//
// Each benchmark iteration performs one full model-checking run and
// reports the explored state count as the "states" metric — the number the
// paper's tables print. Wall-clock per op is the "time" column analogue.
//
// Cells that the paper reports as timeouts (stateless DPOR on Paxos) are
// capped by a budget (default 15s, override MPBASSET_BENCH_BUDGET) and
// report the states explored within it, like the paper's ">16,087,468"
// lower bounds. Set MPBASSET_PAPER=1 to include the paper-scale Echo
// Multicast (3,1,1,1) row of Table II.
package mpbasset_test

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"mpbasset"
	"mpbasset/internal/core"
	"mpbasset/internal/dpor"
	"mpbasset/internal/eval"
	"mpbasset/internal/explore"
	"mpbasset/internal/liveness"
	"mpbasset/internal/por"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/refine"
)

func benchBudget() time.Duration {
	if s := os.Getenv("MPBASSET_BENCH_BUDGET"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			return d
		}
	}
	return 15 * time.Second
}

func paperScale() bool { return os.Getenv("MPBASSET_PAPER") == "1" }

func reportCell(b *testing.B, c eval.Cell) {
	b.Helper()
	if c.Err != nil {
		b.Fatal(c.Err)
	}
	b.ReportMetric(float64(c.States), "states")
	b.ReportMetric(float64(c.Events), "events")
}

// benchTarget couples a table line with its protocol constructors.
type benchTarget struct {
	name    string
	quorum  func() (*core.Protocol, error)
	single  func() (*core.Protocol, error)
	dporCol bool // false: the paper used unreduced stateful search instead
}

func benchTargets(b *testing.B) []benchTarget {
	b.Helper()
	mk := func(p *core.Protocol, err error) func() (*core.Protocol, error) {
		return func() (*core.Protocol, error) { return p, err }
	}
	paxosCfg := func(m paxos.Model, faulty bool) func() (*core.Protocol, error) {
		return mk(paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1, Model: m, Faulty: faulty}))
	}
	mcast := func(hr, hi, br, bi int, m multicast.Model) func() (*core.Protocol, error) {
		return mk(multicast.New(multicast.Config{
			HonestReceivers: hr, HonestInitiators: hi,
			ByzantineReceivers: br, ByzantineInitiators: bi, Model: m,
		}))
	}
	store := func(objs, readers int, wrong bool, m storage.Model) func() (*core.Protocol, error) {
		return mk(storage.New(storage.Config{Objects: objs, Readers: readers, WrongRegularity: wrong, Model: m}))
	}
	return []benchTarget{
		{"Paxos_231", paxosCfg(paxos.ModelQuorum, false), paxosCfg(paxos.ModelSingle, false), true},
		{"FaultyPaxos_231", paxosCfg(paxos.ModelQuorum, true), paxosCfg(paxos.ModelSingle, true), true},
		{"Multicast_3011", mcast(3, 0, 1, 1, multicast.ModelQuorum), mcast(3, 0, 1, 1, multicast.ModelSingle), true},
		{"Multicast_2101", mcast(2, 1, 0, 1, multicast.ModelQuorum), mcast(2, 1, 0, 1, multicast.ModelSingle), true},
		{"Multicast_2121_wrong", mcast(2, 1, 2, 1, multicast.ModelQuorum), mcast(2, 1, 2, 1, multicast.ModelSingle), true},
		{"Storage_31", store(3, 1, false, storage.ModelQuorum), store(3, 1, false, storage.ModelSingle), false},
		{"Storage_32_wrong", store(3, 2, true, storage.ModelQuorum), store(3, 2, true, storage.ModelSingle), false},
	}
}

// BenchmarkTable1 regenerates the three columns of the paper's Table I for
// every row.
func BenchmarkTable1(b *testing.B) {
	opts := eval.Options{Budget: benchBudget()}
	for _, tg := range benchTargets(b) {
		tg := tg
		baseline := "NoQuorumDPOR"
		if !tg.dporCol {
			baseline = "NoQuorumUnreduced"
		}
		b.Run(tg.name+"/"+baseline, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := tg.single()
				if err != nil {
					b.Fatal(err)
				}
				var c eval.Cell
				if tg.dporCol {
					c = eval.RunDPOR(baseline, p, opts)
				} else {
					c = eval.RunUnreduced(baseline, p, opts)
				}
				reportCell(b, c)
			}
		})
		b.Run(tg.name+"/NoQuorumSPOR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := tg.single()
				if err != nil {
					b.Fatal(err)
				}
				reportCell(b, eval.RunSPOR("NoQuorumSPOR", p, opts))
			}
		})
		b.Run(tg.name+"/QuorumSPOR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := tg.quorum()
				if err != nil {
					b.Fatal(err)
				}
				reportCell(b, eval.RunSPOR("QuorumSPOR", p, opts))
			}
		})
	}
}

// BenchmarkTable2 regenerates the four columns of the paper's Table II:
// all quorum models, SPOR, with the four split strategies.
func BenchmarkTable2(b *testing.B) {
	opts := eval.Options{Budget: benchBudget()}
	targets := benchTargets(b)
	if paperScale() {
		targets = append(targets, benchTarget{
			name: "Multicast_3111",
			quorum: func() (*core.Protocol, error) {
				return multicast.New(multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1})
			},
		})
	}
	for _, tg := range targets {
		tg := tg
		for _, strat := range refine.Strategies() {
			strat := strat
			b.Run(fmt.Sprintf("%s/%s", tg.name, strat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, err := tg.quorum()
					if err != nil {
						b.Fatal(err)
					}
					sp, err := refine.Split(p, strat)
					if err != nil {
						b.Fatal(err)
					}
					reportCell(b, eval.RunSPOR(strat.String(), sp, opts))
				}
			})
		}
	}
}

// BenchmarkAblation measures the design choices DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) {
	newPaxos := func(b *testing.B) *core.Protocol {
		p, err := paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	run := func(b *testing.B, p *core.Protocol, o explore.Options) {
		o.MaxDuration = benchBudget()
		if o.Store == nil {
			o.Store = explore.NewHashStore()
		}
		res, err := explore.DFS(p, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.States), "states")
	}

	b.Run("POR/off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newPaxos(b), explore.Options{})
		}
	})
	b.Run("POR/firstSeed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := newPaxos(b)
			exp, err := por.NewExpander(p)
			if err != nil {
				b.Fatal(err)
			}
			run(b, p, explore.Options{Expander: exp})
		}
	})
	b.Run("POR/bestSeed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := newPaxos(b)
			exp, err := por.NewExpander(p)
			if err != nil {
				b.Fatal(err)
			}
			exp.BestSeed = true
			run(b, p, explore.Options{Expander: exp})
		}
	})
	b.Run("Store/exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newPaxos(b), explore.Options{Store: explore.NewExactStore()})
		}
	})
	b.Run("Store/hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newPaxos(b), explore.Options{Store: explore.NewHashStore()})
		}
	})
	b.Run("Symmetry/on", func(b *testing.B) {
		cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
		for i := 0; i < b.N; i++ {
			p, err := paxos.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := mpbasset.Check(p, mpbasset.Options{
				Search:        mpbasset.SearchUnreduced,
				SymmetryRoles: cfg.Roles(),
				MaxDuration:   benchBudget(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.States), "states")
		}
	})
}

// BenchmarkStoreTier sweeps the visited-store tiers on the (3,1) regular
// storage model under SPOR — the eval store-tier table's first row as Go
// benchmarks. The exact tiers (hash, exact, and their collapse-compressed
// variants) explore the identical state space, so states/op is constant
// and time/op isolates the per-state store cost; the bitstate cell runs
// the lossy tier at its default sizing, where no state happens to be
// omitted on this model, and time/op prices the k probe hashes.
func BenchmarkStoreTier(b *testing.B) {
	newStorage := func(b *testing.B) *core.Protocol {
		p, err := storage.New(storage.Config{Objects: 3, Readers: 1})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	run := func(b *testing.B, p *core.Protocol, o explore.Options) {
		exp, err := por.NewExpander(p)
		if err != nil {
			b.Fatal(err)
		}
		o.Expander = exp
		o.MaxDuration = benchBudget()
		res, err := explore.DFS(p, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.States), "states")
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newStorage(b), explore.Options{Store: explore.NewHashStore()})
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newStorage(b), explore.Options{Store: explore.NewExactStore()})
		}
	})
	b.Run("collapse-hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newStorage(b), explore.Options{
				Store: explore.NewHashStore(),
				Canon: explore.NewCollapser().Canon,
			})
		}
	})
	b.Run("collapse-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newStorage(b), explore.Options{
				Store: explore.NewExactStore(),
				Canon: explore.NewCollapser().Canon,
			})
		}
	})
	b.Run("bitstate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newStorage(b), explore.Options{Store: explore.NewBitstateStore(0, 0)})
		}
	})
}

// BenchmarkParallelBFS compares the frontier-parallel BFS engine across
// worker-pool sizes on the three bundled protocols, SPOR-reduced with the
// sharded concurrent store — the configuration mpcheck -workers runs. All
// worker counts explore the identical state space (the engine is
// deterministic), so states/op is constant and time/op isolates the
// parallel speedup. Wall-clock gains need GOMAXPROCS > 1; on a single
// hardware thread the worker counts merely measure the engine's overhead.
func BenchmarkParallelBFS(b *testing.B) {
	targets := []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"Paxos_231", func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
		}},
		{"Multicast_3111", func() (*core.Protocol, error) {
			return multicast.New(multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1})
		}},
		{"Storage_31", func() (*core.Protocol, error) {
			return storage.New(storage.Config{Objects: 3, Readers: 1})
		}},
	}
	for _, tg := range targets {
		tg := tg
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers-%d", tg.name, workers), func(b *testing.B) {
				p, err := tg.mk()
				if err != nil {
					b.Fatal(err)
				}
				exp, err := por.NewExpander(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := explore.ParallelBFS(p, explore.Options{
						Expander:    exp,
						Workers:     workers,
						Store:       explore.NewShardedHashStore(),
						MaxDuration: benchBudget(),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.States), "states")
					b.ReportMetric(float64(res.Stats.Events), "events")
				}
			})
		}
	}
}

// BenchmarkParallelDFS compares the speculative parallel DFS engine across
// worker-pool sizes and steal depths on the bundled protocols,
// SPOR-reduced with the sharded concurrent store — the configuration
// mpcheck -workers runs for the DFS searches. Every configuration commits
// the identical state space in the identical order (the engine is
// bit-identical to sequential DFS), so states/op is constant and time/op
// isolates the speculation win: the commit walk spends its time on cheap
// store probes while the workers precompute Enabled/Expand/Execute and the
// invariant checks. Wall-clock gains need GOMAXPROCS > 1.
func BenchmarkParallelDFS(b *testing.B) {
	targets := []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"Paxos_231", func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
		}},
		{"Multicast_3111", func() (*core.Protocol, error) {
			return multicast.New(multicast.Config{HonestReceivers: 3, HonestInitiators: 1, ByzantineReceivers: 1, ByzantineInitiators: 1})
		}},
		{"Storage_31", func() (*core.Protocol, error) {
			return storage.New(storage.Config{Objects: 3, Readers: 1})
		}},
	}
	type cfg struct {
		name       string
		workers    int
		stealDepth int
	}
	cfgs := []cfg{
		{"seq", 0, 0}, // sequential DFS baseline
		{"workers-1", 1, 0},
		{"workers-4", 4, 0},
		{"workers-8", 8, 0},
		{"workers-4-steal-2", 4, 2},
		{"workers-4-steal-32", 4, 32},
	}
	for _, tg := range targets {
		for _, c := range cfgs {
			b.Run(fmt.Sprintf("%s/%s", tg.name, c.name), func(b *testing.B) {
				p, err := tg.mk()
				if err != nil {
					b.Fatal(err)
				}
				exp, err := por.NewExpander(p)
				if err != nil {
					b.Fatal(err)
				}
				engine := explore.DFS
				if c.workers > 0 {
					engine = explore.ParallelDFS
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := engine(p, explore.Options{
						Expander:    exp,
						Workers:     c.workers,
						StealDepth:  c.stealDepth,
						Store:       explore.NewShardedHashStore(),
						MaxDuration: benchBudget(),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.States), "states")
					b.ReportMetric(float64(res.Stats.Events), "events")
				}
			})
		}
	}
}

// BenchmarkParallelDPOR compares the speculative parallel DPOR engine
// across worker-pool sizes and steal depths on the bundled single-message
// models — the configuration mpcheck -search dpor -workers runs. Every
// configuration commits the identical stateless exploration (the engine is
// bit-identical to sequential DPOR), so on runs that complete within the
// budget states/op is constant and time/op isolates the speculation win:
// the commit walk consumes worker-built expansion records instead of
// re-executing events. Wall-clock gains need GOMAXPROCS > 1.
func BenchmarkParallelDPOR(b *testing.B) {
	targets := []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"Paxos_131_single", func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 1, Acceptors: 3, Learners: 1, Model: paxos.ModelSingle})
		}},
		{"Multicast_2101_single", func() (*core.Protocol, error) {
			return multicast.New(multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineInitiators: 1, Model: multicast.ModelSingle})
		}},
		{"Storage_31_single", func() (*core.Protocol, error) {
			return storage.New(storage.Config{Objects: 3, Readers: 1, Model: storage.ModelSingle})
		}},
	}
	type cfg struct {
		name       string
		workers    int
		stealDepth int
	}
	cfgs := []cfg{
		{"seq", 0, 0}, // sequential DPOR baseline
		{"workers-1", 1, 0},
		{"workers-4", 4, 0},
		{"workers-8", 8, 0},
		{"workers-4-steal-2", 4, 2},
		{"workers-4-steal-32", 4, 32},
	}
	for _, tg := range targets {
		for _, c := range cfgs {
			b.Run(fmt.Sprintf("%s/%s", tg.name, c.name), func(b *testing.B) {
				p, err := tg.mk()
				if err != nil {
					b.Fatal(err)
				}
				engine := dpor.Explore
				if c.workers > 0 {
					engine = dpor.ExploreParallel
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := engine(p, explore.Options{
						Workers:     c.workers,
						StealDepth:  c.stealDepth,
						MaxDuration: benchBudget(),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.States), "states")
					b.ReportMetric(float64(res.Stats.Events), "events")
				}
			})
		}
	}
}

// BenchmarkFrontierScheduler measures ParallelBFS's work-stealing
// intra-level scheduler (chunked claims over per-worker spans with
// half-range stealing, successor keys flushed through SeenBatch) on
// skewed-frontier workloads — frontiers whose nodes differ widely in
// expansion cost. Deep Paxos (thousands of BFS levels with
// narrow-then-wide frontiers and quorum-enumeration spikes) and
// combined-split refined multicast (many refined transitions of widely
// varying enumeration cost per node) are the skew generators. states/op
// is constant across worker counts, so time/op isolates the scheduling
// cost; it only shows scaling on multi-core hardware (GOMAXPROCS > 1).
func BenchmarkFrontierScheduler(b *testing.B) {
	targets := []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"DeepPaxos_231", func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
		}},
		{"RefinedMulticast_3111", func() (*core.Protocol, error) {
			p, err := multicast.New(multicast.Config{
				HonestReceivers: 3, HonestInitiators: 1,
				ByzantineReceivers: 1, ByzantineInitiators: 1,
			})
			if err != nil {
				return nil, err
			}
			return refine.Split(p, refine.Combined)
		}},
	}
	for _, tg := range targets {
		p, err := tg.mk()
		if err != nil {
			b.Fatal(err)
		}
		exp, err := por.NewExpander(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", tg.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := explore.ParallelBFS(p, explore.Options{
						Expander:    exp,
						Workers:     workers,
						Store:       explore.NewShardedHashStore(),
						MaxDuration: benchBudget(),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.States), "states")
				}
			})
		}
	}
}

// BenchmarkSpillStoreOverhead quantifies the cost of the spill-to-disk
// visited store against the in-memory baseline on the skewed deep
// workloads of BenchmarkFrontierScheduler (deep Paxos, combined-split
// refined multicast), SPOR-reduced with 4 frontier-parallel workers — the
// configuration a beyond-RAM run would use. The budgets force different
// spill pressure: "unbounded" never touches disk, "1MiB" spills the tail
// of a large run, "64KiB" keeps almost the whole visited set on disk, so
// the three time/op columns trace the overhead curve. All configurations
// explore the identical state space (states/op is constant); spillruns/op
// reports the disk activity.
func BenchmarkSpillStoreOverhead(b *testing.B) {
	targets := []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"DeepPaxos_231", func() (*core.Protocol, error) {
			return paxos.New(paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1})
		}},
		{"RefinedMulticast_3111", func() (*core.Protocol, error) {
			p, err := multicast.New(multicast.Config{
				HonestReceivers: 3, HonestInitiators: 1,
				ByzantineReceivers: 1, ByzantineInitiators: 1,
			})
			if err != nil {
				return nil, err
			}
			return refine.Split(p, refine.Combined)
		}},
	}
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"unbounded", 0},
		{"budget-1MiB", 1 << 20},
		{"budget-64KiB", 64 << 10},
	}
	for _, tg := range targets {
		p, err := tg.mk()
		if err != nil {
			b.Fatal(err)
		}
		exp, err := por.NewExpander(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, bud := range budgets {
			b.Run(fmt.Sprintf("%s/%s", tg.name, bud.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := explore.Options{
						Expander:    exp,
						Workers:     4,
						MaxDuration: benchBudget(),
					}
					var spill *explore.SpillStore
					if bud.bytes > 0 {
						spill, err = explore.NewSpillStore(explore.SpillConfig{BudgetBytes: bud.bytes, Dir: b.TempDir()})
						if err != nil {
							b.Fatal(err)
						}
						opts.Store = spill
					} else {
						opts.Store = explore.NewShardedHashStore()
					}
					res, err := explore.ParallelBFS(p, opts)
					if err != nil {
						b.Fatal(err)
					}
					if spill != nil {
						if err := spill.Close(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.Stats.States), "states")
					b.ReportMetric(float64(res.Stats.SpillRuns), "spillruns")
				}
			})
		}
	}
}

// BenchmarkShardedStore isolates the visited-set stores: the sequential
// stores single-threaded versus the sharded store hammered by GOMAXPROCS
// goroutines (b.RunParallel), on a shared synthetic key stream.
func BenchmarkShardedStore(b *testing.B) {
	mkKeys := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("proc0:val%d|proc1:val%d|bag{m%d}", i, i/2, i%97)
		}
		return keys
	}
	const keySpace = 1 << 16
	keys := mkKeys(keySpace)
	b.Run("exact-sequential", func(b *testing.B) {
		store := explore.NewExactStore()
		for i := 0; i < b.N; i++ {
			store.Seen(keys[i%keySpace])
		}
	})
	b.Run("hashed-sequential", func(b *testing.B) {
		store := explore.NewHashStore()
		for i := 0; i < b.N; i++ {
			store.Seen(keys[i%keySpace])
		}
	})
	b.Run("sharded-exact-parallel", func(b *testing.B) {
		store := explore.NewShardedExactStore()
		var ctr int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(atomic.AddInt64(&ctr, 1))
				store.Seen(keys[i%keySpace])
			}
		})
	})
	b.Run("sharded-hashed-parallel", func(b *testing.B) {
		store := explore.NewShardedHashStore()
		var ctr int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(atomic.AddInt64(&ctr, 1))
				store.Seen(keys[i%keySpace])
			}
		})
	})
	// The batched fast path ParallelBFS workers use: 64 keys per SeenBatch
	// call, so each stripe lock is taken once per batch rather than once
	// per key.
	for _, mode := range []struct {
		name string
		mk   func() *explore.ShardedStore
	}{
		{"sharded-exact-batch64-parallel", explore.NewShardedExactStore},
		{"sharded-hashed-batch64-parallel", explore.NewShardedHashStore},
	} {
		b.Run(mode.name, func(b *testing.B) {
			store := mode.mk()
			const batch = 64
			var ctr int64
			b.RunParallel(func(pb *testing.PB) {
				buf := make([]string, 0, batch)
				for pb.Next() {
					i := int(atomic.AddInt64(&ctr, 1))
					buf = append(buf, keys[i%keySpace])
					if len(buf) == batch {
						store.SeenBatch(buf)
						buf = buf[:0]
					}
				}
				if len(buf) > 0 {
					store.SeenBatch(buf)
				}
			})
		})
	}
}

// BenchmarkAnalysisExample keeps the §II-C numbers honest in CI.
func BenchmarkAnalysisExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, penalty := eval.SmallestPaxosExample()
		if penalty.Int64() != 169 {
			b.Fatalf("penalty = %s, want 169", penalty)
		}
	}
}

// BenchmarkNDFS measures the liveness cells: each bundled protocol's
// eventuality property under nested DFS, unreduced and SPOR-reduced, plus
// the weakly fair full-graph product (Choueka monitor copies). States/op is
// the explored product size — constant per configuration, since the nested
// engines are deterministic.
func BenchmarkNDFS(b *testing.B) {
	opts := eval.Options{Budget: benchBudget()}
	targets := []struct {
		name  string
		build func() (*core.Protocol, *liveness.Property, error)
	}{
		{"Paxos_231_decides", func() (*core.Protocol, *liveness.Property, error) {
			cfg := paxos.Config{Proposers: 2, Acceptors: 3, Learners: 1}
			p, err := paxos.New(cfg)
			return p, paxos.Decides(cfg), err
		}},
		{"Multicast_2101_delivers", func() (*core.Protocol, *liveness.Property, error) {
			cfg := multicast.Config{HonestReceivers: 2, HonestInitiators: 1, ByzantineReceivers: 0, ByzantineInitiators: 1}
			p, err := multicast.New(cfg)
			return p, multicast.Delivers(cfg), err
		}},
		{"Storage_31_reads_complete", func() (*core.Protocol, *liveness.Property, error) {
			cfg := storage.Config{Objects: 3, Readers: 1}
			p, err := storage.New(cfg)
			return p, storage.ReadsComplete(cfg), err
		}},
	}
	cols := []struct {
		name    string
		reduced bool
		fair    bool
	}{
		{"unreduced", false, false},
		{"SPOR", true, false},
		{"weakly-fair", false, true},
	}
	for _, tg := range targets {
		for _, col := range cols {
			b.Run(tg.name+"/"+col.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, prop, err := tg.build()
					if err != nil {
						b.Fatal(err)
					}
					prop.WeakFair = col.fair
					reportCell(b, eval.RunNDFS(col.name, p, prop, col.reduced, opts))
				}
			})
		}
	}
}
