// Package spec holds the speculation scheduler shared by the repo's three
// speculative parallel engines — ParallelDFS and ParallelNDFS in package
// explore, ExploreParallel in package dpor: a striped, capacity-bounded
// memo table of expansion records keyed by state key (Memo) and a bounded
// steal queue popped from its deep end (Queue), plus the tuning constants
// all three engines share.
//
// The package sits under the determinism contract only indirectly: none
// of its choices can change a search result. Each engine's commit walk
// replays its sequential engine verbatim and merely consumes the records
// speculators happen to have memoized, so the capacity bounds, the stripe
// hash, the queue's overflow policy and the steal budgets tune memory and
// throughput, never verdicts, statistics or traces.
package spec
