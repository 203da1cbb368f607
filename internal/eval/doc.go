// Package eval defines the paper's evaluation as executable experiments:
// the quorum-semantics comparison of Table I, the transition-refinement
// comparison of Table II, the interleaving-cost analysis of §II-C, and
// the repo's own store-tier table (collapse compression and lossy
// bitstate sweeps). cmd/mpbench prints the tables; the root bench_test.go
// exposes each row as a Go benchmark.
//
// The package is part of the determinism contract (it appears in the lint
// suite's deterministic allowlist) and is also the contract's arbiter: it
// owns the canonical partition of result statistics into
// DeterministicStatsFields — bit-identical across engines, worker counts,
// schedulers and exact store tiers, enforced cell-by-cell by the baseline
// gate in compare.go — and VolatileStatsFields, the timing, spill and
// bitstate-coverage numbers that legitimately drift. The statsmask lint
// analyzer cross-checks that partition against explore.Stats, so a new
// statistic cannot ship without being classified.
//
// Every cell runs through mpbasset.Check, the one engine dispatcher:
// Options.Engine carries the facade options the table shares (workers,
// state cap, store tier), each cell sets its search and liveness
// property, and the facade picks the engine, builds the store and
// validates the combination. A cell therefore measures exactly what a
// library caller or mpcheck run with the same options would get. Cells
// whose engine cannot honour a table-wide setting drop it explicitly —
// DPOR cells the store tier, liveness cells the lossy store — and the
// store-tier table names its tiers per cell.
package eval
