package mpbasset_test

import (
	"strings"
	"testing"
	"time"

	"mpbasset"
	"mpbasset/internal/core"
)

// TestOptionsValidate is the facade's option-rejection table: every
// combination Check refuses, with the accepted neighbours that must keep
// working. cmd/mpcheck's TestRejections runs each rejected case through
// the CLI as well.
func TestOptionsValidate(t *testing.T) {
	const (
		spor      = mpbasset.SearchSPOR
		unreduced = mpbasset.SearchUnreduced
		bfs       = mpbasset.SearchBFS
		stateless = mpbasset.SearchStateless
		dpor      = mpbasset.SearchDPOR
	)
	prop := &mpbasset.Property{Name: "goal", Reads: []core.ProcessID{0}}
	roles := [][]mpbasset.ProcessID{{0, 1}}
	cases := []struct {
		name    string
		opts    mpbasset.Options
		wantErr string // substring; empty means accepted
	}{
		{"defaults", mpbasset.Options{}, ""},
		{"unknown search", mpbasset.Options{Search: 99}, "unknown search 99"},

		// Workers selects the parallel engine of the search's family.
		{"workers with spor", mpbasset.Options{Search: spor, Workers: 8}, ""},
		{"workers with unreduced", mpbasset.Options{Search: unreduced, Workers: 2}, ""},
		{"workers with bfs", mpbasset.Options{Search: bfs, Workers: 4}, ""},
		{"workers with dpor", mpbasset.Options{Search: dpor, Workers: 1}, ""},
		{"many workers with dpor", mpbasset.Options{Search: dpor, Workers: 8}, ""},
		{"workers with stateless", mpbasset.Options{Search: stateless, Workers: 4}, "Workers (-workers) is not supported by stateless search"},

		// ChunkSize/BatchSize tune the BFS frontier scheduler only, and
		// need Workers.
		{"workers with bfs knobs", mpbasset.Options{Search: bfs, Workers: 4, ChunkSize: 16, BatchSize: 128}, ""},
		{"chunk without workers", mpbasset.Options{Search: spor, ChunkSize: 16}, "ChunkSize (-chunk) requires Workers (-workers)"},
		{"batch without workers", mpbasset.Options{Search: spor, BatchSize: 64}, "BatchSize (-batch) requires Workers (-workers)"},
		{"both knobs without workers", mpbasset.Options{Search: bfs, ChunkSize: 8, BatchSize: 8}, "ChunkSize (-chunk) requires Workers (-workers)"},
		{"chunk with parallel dfs", mpbasset.Options{Search: spor, Workers: 4, ChunkSize: 16}, "ChunkSize (-chunk) tunes the parallel BFS frontier scheduler, but this search runs speculative parallel DFS"},
		{"batch with parallel unreduced", mpbasset.Options{Search: unreduced, Workers: 4, BatchSize: 64}, "BatchSize (-batch) tunes the parallel BFS insert batching, but this search runs speculative parallel DFS"},
		{"chunk with parallel dpor", mpbasset.Options{Search: dpor, Workers: 4, ChunkSize: 16}, "this search runs speculative parallel DPOR (tune StealDepth (-steal-depth) instead)"},
		{"batch with parallel dpor", mpbasset.Options{Search: dpor, Workers: 4, BatchSize: 64}, "this search runs speculative parallel DPOR (tune StealDepth (-steal-depth) instead)"},

		// StealDepth tunes the speculative DFS and DPOR engines.
		{"steal-depth with spor", mpbasset.Options{Search: spor, Workers: 4, StealDepth: 8}, ""},
		{"steal-depth with unreduced", mpbasset.Options{Search: unreduced, Workers: 2, StealDepth: 64}, ""},
		{"steal-depth with dpor", mpbasset.Options{Search: dpor, Workers: 4, StealDepth: 8}, ""},
		{"steal-depth without workers", mpbasset.Options{Search: spor, StealDepth: 8}, "StealDepth (-steal-depth) requires Workers (-workers)"},
		{"steal-depth with parallel bfs", mpbasset.Options{Search: bfs, Workers: 4, StealDepth: 8}, "StealDepth (-steal-depth) tunes parallel DFS/DPOR subtree speculation"},

		// Negative sizes and limits.
		{"negative workers", mpbasset.Options{Workers: -2}, "Workers (-workers) must not be negative"},
		{"negative chunk", mpbasset.Options{Search: bfs, Workers: 2, ChunkSize: -1}, "ChunkSize (-chunk) must not be negative"},
		{"negative batch", mpbasset.Options{Search: bfs, Workers: 2, BatchSize: -1}, "BatchSize (-batch) must not be negative"},
		{"negative steal-depth", mpbasset.Options{Workers: 2, StealDepth: -1}, "StealDepth (-steal-depth) must not be negative"},
		{"negative max-states", mpbasset.Options{MaxStates: -5}, "MaxStates (-max-states) must not be negative"},
		{"negative budget", mpbasset.Options{MaxDuration: -time.Second}, "MaxDuration (-budget) must not be negative"},
		{"negative mem-budget", mpbasset.Options{StoreBudgetBytes: -1}, "StoreBudgetBytes (-mem-budget) must not be negative"},
		{"negative bitstate-bytes", mpbasset.Options{Lossy: true, BitstateBytes: -1}, "BitstateBytes (-bitstate-bytes) must not be negative"},

		// Liveness runs nested DFS, which only the DFS searches have.
		{"property with spor", mpbasset.Options{Search: spor, Property: prop}, ""},
		{"property with unreduced", mpbasset.Options{Search: unreduced, Property: prop}, ""},
		{"property with parallel spor", mpbasset.Options{Search: spor, Workers: 2, Property: prop}, ""},
		{"property with bfs", mpbasset.Options{Search: bfs, Property: prop}, "Property (-property) requires a DFS search"},
		{"property with stateless", mpbasset.Options{Search: stateless, Property: prop}, "Property (-property) requires a DFS search"},
		{"property with dpor", mpbasset.Options{Search: dpor, Property: prop}, "Property (-property) requires a DFS search"},

		// Reduction settings a search cannot honour.
		{"best seed with spor", mpbasset.Options{Search: spor, BestSeed: true}, ""},
		{"best seed with unreduced", mpbasset.Options{Search: unreduced, BestSeed: true}, "BestSeed requires SearchSPOR"},
		{"best seed with bfs", mpbasset.Options{Search: bfs, BestSeed: true}, "BestSeed requires SearchSPOR"},
		{"best seed with dpor", mpbasset.Options{Search: dpor, BestSeed: true}, "BestSeed requires SearchSPOR"},
		{"symmetry with spor", mpbasset.Options{Search: spor, SymmetryRoles: roles}, ""},
		{"symmetry with stateless", mpbasset.Options{Search: stateless, SymmetryRoles: roles}, ""},
		{"symmetry with dpor", mpbasset.Options{Search: dpor, SymmetryRoles: roles}, "SymmetryRoles (-symmetry) is not supported by SearchDPOR"},

		// The spill tier.
		{"budget with spor", mpbasset.Options{Search: spor, StoreBudgetBytes: 1 << 20}, ""},
		{"budget with unreduced", mpbasset.Options{Search: unreduced, StoreBudgetBytes: 1 << 20}, ""},
		{"budget with bfs", mpbasset.Options{Search: bfs, StoreBudgetBytes: 1 << 20}, ""},
		{"budget and dir", mpbasset.Options{Search: bfs, StoreBudgetBytes: 1 << 20, SpillDir: "/tmp/spill"}, ""},
		{"budget with stateless", mpbasset.Options{Search: stateless, StoreBudgetBytes: 1 << 20}, "StoreBudgetBytes (-mem-budget) requires a stateful search"},
		{"budget with dpor", mpbasset.Options{Search: dpor, StoreBudgetBytes: 1 << 20}, "StoreBudgetBytes (-mem-budget) requires a stateful search"},
		{"budget with exact states", mpbasset.Options{StoreBudgetBytes: 1 << 20, ExactStates: true}, "StoreBudgetBytes (-mem-budget) is incompatible with ExactStates"},
		{"dir without budget", mpbasset.Options{Search: spor, SpillDir: "/tmp/spill"}, "SpillDir (-spill-dir) requires StoreBudgetBytes (-mem-budget)"},

		// The lossy bitstate tier.
		{"lossy with spor", mpbasset.Options{Search: spor, Lossy: true, BitstateBytes: 1 << 20}, ""},
		{"lossy with parallel bfs", mpbasset.Options{Search: bfs, Workers: 2, Lossy: true}, ""},
		{"bitstate bytes without lossy", mpbasset.Options{BitstateBytes: 1 << 20}, "BitstateBytes (-bitstate-bytes) requires Lossy (-lossy)"},
		{"lossy with stateless", mpbasset.Options{Search: stateless, Lossy: true}, "Lossy (-lossy) requires a stateful search"},
		{"lossy with dpor", mpbasset.Options{Search: dpor, Lossy: true}, "Lossy (-lossy) requires a stateful search"},
		{"lossy with property", mpbasset.Options{Lossy: true, Property: prop}, "Lossy (-lossy) is incompatible with Property (-property)"},
		{"lossy with exact states", mpbasset.Options{Lossy: true, ExactStates: true}, "Lossy (-lossy) is incompatible with ExactStates"},
		{"lossy with mem-budget", mpbasset.Options{Lossy: true, StoreBudgetBytes: 1 << 20}, "Lossy (-lossy) is incompatible with StoreBudgetBytes (-mem-budget)"},

		// Collapse compression.
		{"compress with bfs", mpbasset.Options{Search: bfs, Compress: true}, ""},
		{"compress with stateless", mpbasset.Options{Search: stateless, Compress: true}, "Compress (-compress) requires a stateful search"},
		{"compress with dpor", mpbasset.Options{Search: dpor, Compress: true}, "Compress (-compress) requires a stateful search"},
		{"compress with symmetry", mpbasset.Options{Compress: true, SymmetryRoles: roles}, "Compress (-compress) is incompatible with SymmetryRoles (-symmetry)"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestEngineNames pins the engine names Options.Engine reports, which the
// CLIs print in their banners.
func TestEngineNames(t *testing.T) {
	prop := &mpbasset.Property{Name: "goal"}
	for _, tc := range []struct {
		opts mpbasset.Options
		want string
	}{
		{mpbasset.Options{}, "DFS"},
		{mpbasset.Options{Workers: 2}, "speculative parallel DFS"},
		{mpbasset.Options{Search: mpbasset.SearchUnreduced, Workers: 2, Property: prop}, "speculative parallel NDFS"},
		{mpbasset.Options{Search: mpbasset.SearchBFS, Workers: 2}, "frontier-parallel BFS"},
		{mpbasset.Options{Search: mpbasset.SearchStateless}, "stateless DFS"},
		{mpbasset.Options{Search: mpbasset.SearchDPOR, Workers: 2}, "speculative parallel DPOR"},
	} {
		if got := tc.opts.Engine(); got != tc.want {
			t.Errorf("%+v: Engine() = %q, want %q", tc.opts, got, tc.want)
		}
	}
}
