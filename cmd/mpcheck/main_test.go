package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden output pins")

// TestProfileFlags is a smoke test: each profile flag writes a non-empty,
// gzip-framed pprof file.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-protocol", "storage", "-setting", "2,2", "-search", "unreduced",
		"-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzipped pprof profile", filepath.Base(path), len(data))
		}
	}
}

// stripTime drops the wall-clock line, the only part of a report that
// differs between runs.
func stripTime(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "time:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestOutputPins pins mpcheck's complete report, every line except the
// wall-clock one, for one run of each major mode: the engines, their
// parallel twins, liveness, the store tiers, refinement with symmetry and
// a rendered counterexample. Regenerate with `go test ./cmd/mpcheck -update`
// only after an intended change to the output.
func TestOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full searches")
	}
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"paxos-spor", []string{"-protocol", "paxos", "-search", "spor"}, 0},
		{"paxos-spor-workers2", []string{"-protocol", "paxos", "-search", "spor", "-workers", "2"}, 0},
		{"paxos-bfs-workers2", []string{"-protocol", "paxos", "-search", "bfs", "-workers", "2"}, 0},
		{"paxos-dpor-workers2", []string{"-protocol", "paxos", "-setting", "1,3,1", "-model", "single", "-search", "dpor", "-workers", "2"}, 0},
		{"storage-reads-complete", []string{"-protocol", "storage", "-property", "reads-complete"}, 0},
		{"storage-compress", []string{"-protocol", "storage", "-compress"}, 0},
		{"paxos-lossy", []string{"-protocol", "paxos", "-lossy", "-bitstate-bytes", "1M"}, 0},
		{"paxos-combined-symmetry", []string{"-protocol", "paxos", "-split", "combined", "-symmetry"}, 0},
		{"faulty-paxos-trace", []string{"-protocol", "faulty-paxos", "-trace"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, stderr.String())
			}
			got := stripTime(stdout.String())
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestRejections runs each option combination the facade's
// TestOptionsValidate rejects through the CLI, plus the CLI-only flag
// rules: every one must exit 1 with the facade's message before any
// search runs or any report line is printed.
func TestRejections(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown search", []string{"-search", "nope"}, `unknown search "nope"`},
		{"workers with stateless", []string{"-search", "stateless", "-workers", "4"}, "Workers (-workers) is not supported by stateless search"},
		{"chunk without workers", []string{"-chunk", "16"}, "ChunkSize (-chunk) requires Workers (-workers)"},
		{"batch without workers", []string{"-batch", "64"}, "BatchSize (-batch) requires Workers (-workers)"},
		{"both knobs without workers", []string{"-search", "bfs", "-chunk", "8", "-batch", "8"}, "ChunkSize (-chunk) requires Workers (-workers)"},
		{"chunk with parallel dfs", []string{"-workers", "4", "-chunk", "16"}, "but this search runs speculative parallel DFS"},
		{"batch with parallel dfs alias", []string{"-search", "dfs", "-workers", "4", "-batch", "64"}, "but this search runs speculative parallel DFS"},
		{"chunk with parallel dpor", []string{"-model", "single", "-search", "dpor", "-workers", "4", "-chunk", "16"}, "this search runs speculative parallel DPOR"},
		{"batch with parallel dpor", []string{"-model", "single", "-search", "dpor", "-workers", "4", "-batch", "64"}, "this search runs speculative parallel DPOR"},
		{"steal-depth without workers", []string{"-steal-depth", "8"}, "StealDepth (-steal-depth) requires Workers (-workers)"},
		{"steal-depth with parallel bfs", []string{"-search", "bfs", "-workers", "4", "-steal-depth", "8"}, "StealDepth (-steal-depth) tunes parallel DFS/DPOR subtree speculation"},
		{"negative workers and max-states", []string{"-search", "spor", "-workers", "-2", "-max-states", "-5"}, "Workers (-workers) must not be negative"},
		{"negative max-states", []string{"-max-states", "-5"}, "MaxStates (-max-states) must not be negative"},
		{"negative chunk", []string{"-search", "bfs", "-workers", "2", "-chunk", "-1"}, "ChunkSize (-chunk) must not be negative"},
		{"negative batch", []string{"-search", "bfs", "-workers", "2", "-batch", "-1"}, "BatchSize (-batch) must not be negative"},
		{"negative steal-depth", []string{"-workers", "2", "-steal-depth", "-1"}, "StealDepth (-steal-depth) must not be negative"},
		{"negative budget", []string{"-budget", "-1s"}, "MaxDuration (-budget) must not be negative"},
		{"property with bfs", []string{"-protocol", "storage", "-search", "bfs", "-property", "reads-complete"}, "Property (-property) requires a DFS search"},
		{"property with stateless", []string{"-protocol", "storage", "-search", "stateless", "-property", "reads-complete"}, "Property (-property) requires a DFS search"},
		{"property with dpor", []string{"-protocol", "storage", "-model", "single", "-search", "dpor", "-property", "reads-complete"}, "Property (-property) requires a DFS search"},
		{"fair without property", []string{"-fair"}, "-fair requires -property"},
		{"fair with bfs property", []string{"-protocol", "storage", "-search", "bfs", "-property", "reads-complete", "-fair"}, "Property (-property) requires a DFS search"},
		{"symmetry with dpor", []string{"-protocol", "paxos", "-model", "single", "-setting", "1,3,1", "-search", "dpor", "-symmetry"}, "SymmetryRoles (-symmetry) is not supported by SearchDPOR"},
		{"budget with stateless", []string{"-search", "stateless", "-mem-budget", "1M"}, "StoreBudgetBytes (-mem-budget) requires a stateful search"},
		{"budget with dpor", []string{"-model", "single", "-search", "dpor", "-mem-budget", "1M"}, "StoreBudgetBytes (-mem-budget) requires a stateful search"},
		{"dir without budget", []string{"-spill-dir", "spill"}, "SpillDir (-spill-dir) requires StoreBudgetBytes (-mem-budget)"},
		{"bitstate bytes without lossy", []string{"-bitstate-bytes", "1M"}, "BitstateBytes (-bitstate-bytes) requires Lossy (-lossy)"},
		{"lossy with stateless", []string{"-search", "stateless", "-lossy"}, "Lossy (-lossy) requires a stateful search"},
		{"lossy with dpor", []string{"-model", "single", "-search", "dpor", "-lossy"}, "Lossy (-lossy) requires a stateful search"},
		{"lossy with property", []string{"-protocol", "storage", "-lossy", "-property", "reads-complete"}, "Lossy (-lossy) is incompatible with Property (-property)"},
		{"lossy with mem-budget", []string{"-lossy", "-mem-budget", "1M"}, "Lossy (-lossy) is incompatible with StoreBudgetBytes (-mem-budget)"},
		{"compress with stateless", []string{"-search", "stateless", "-compress"}, "Compress (-compress) requires a stateful search"},
		{"compress with dpor", []string{"-model", "single", "-search", "dpor", "-compress"}, "Compress (-compress) requires a stateful search"},
		{"compress with symmetry", []string{"-compress", "-symmetry"}, "Compress (-compress) is incompatible with SymmetryRoles (-symmetry)"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: stderr %q, want substring %q", tc.name, stderr.String(), tc.wantErr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q before rejecting", tc.name, stdout.String())
		}
	}
}
