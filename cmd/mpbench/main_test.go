package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags is a smoke test: each profile flag writes a non-empty,
// gzip-framed pprof file.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-analysis",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
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
