package explore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// hotEntryBytes is the budget-accounting cost of one hot-tier entry: a
// 16-byte fingerprint plus amortized Go map overhead (bucket headers,
// load-factor slack, the hash seed). Deliberately coarse — the budget
// bounds the hot tier's order of magnitude, not its exact footprint.
const hotEntryBytes = 64

// defaultMergeRuns is the on-disk run count past which a SpillStore
// compacts all runs into one (SpillConfig.MergeRuns overrides it). Each
// probe that misses the hot tier consults every run's bloom summary, so
// unbounded run counts would degrade negative probes linearly.
const defaultMergeRuns = 8

// SpillConfig configures a SpillStore.
type SpillConfig struct {
	// BudgetBytes bounds the in-memory hot tier (approximately — entries
	// are accounted at a fixed hotEntryBytes each). When an insert pushes
	// the hot tier past the budget, its fingerprints are flushed to a
	// sorted immutable run file on disk. Must be positive.
	BudgetBytes int64
	// Dir is the directory for run files. Empty means a fresh temporary
	// directory, removed by Close; a caller-supplied directory is kept,
	// only the run files created in it are removed.
	Dir string
	// MergeRuns is the run count at which the store compacts every disk
	// run into a single one; 0 means defaultMergeRuns.
	MergeRuns int
}

// spillBloom is a run's in-memory membership summary: a power-of-two
// bitset probed at four positions sliced directly from the 128-bit FNV
// fingerprint (the fingerprint is already a high-quality hash, so no
// rehashing is needed). It answers "definitely absent" for most keys a
// run does not hold, keeping negative probes off the disk.
type spillBloom struct {
	words []uint64
	mask  uint32
}

func newSpillBloom(n int) spillBloom {
	// ~12 bits per entry with four probes keeps false positives well
	// under 1%.
	bitsWanted := uint64(n) * 12
	if bitsWanted < 64 {
		bitsWanted = 64
	}
	size := uint64(1) << bits.Len64(bitsWanted-1)
	return spillBloom{words: make([]uint64, size/64), mask: uint32(size - 1)}
}

func (b *spillBloom) probes(fp [16]byte) [4]uint32 {
	return [4]uint32{
		uint32(fp[0])<<24 | uint32(fp[1])<<16 | uint32(fp[2])<<8 | uint32(fp[3]),
		uint32(fp[4])<<24 | uint32(fp[5])<<16 | uint32(fp[6])<<8 | uint32(fp[7]),
		uint32(fp[8])<<24 | uint32(fp[9])<<16 | uint32(fp[10])<<8 | uint32(fp[11]),
		uint32(fp[12])<<24 | uint32(fp[13])<<16 | uint32(fp[14])<<8 | uint32(fp[15]),
	}
}

func (b *spillBloom) add(fp [16]byte) {
	for _, p := range b.probes(fp) {
		i := p & b.mask
		b.words[i/64] |= 1 << (i % 64)
	}
}

func (b *spillBloom) mayContain(fp [16]byte) bool {
	for _, p := range b.probes(fp) {
		i := p & b.mask
		if b.words[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// spillRun is one immutable sorted run of 16-byte fingerprints on disk,
// with its in-memory bloom summary and key range for cheap rejection.
// The file handle is used via ReadAt only, which is safe for concurrent
// probes.
type spillRun struct {
	f           *os.File
	path        string
	n           int
	bloom       spillBloom
	first, last [16]byte
}

// contains binary-searches the run for fp after the bloom and range
// pre-filters.
func (r *spillRun) contains(fp [16]byte) (bool, error) {
	if bytes.Compare(fp[:], r.first[:]) < 0 || bytes.Compare(fp[:], r.last[:]) > 0 {
		return false, nil
	}
	if !r.bloom.mayContain(fp) {
		return false, nil
	}
	lo, hi := 0, r.n
	var buf [16]byte
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if _, err := r.f.ReadAt(buf[:], int64(mid)*16); err != nil {
			return false, fmt.Errorf("spill run %s: %w", r.path, err)
		}
		switch bytes.Compare(buf[:], fp[:]) {
		case 0:
			return true, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false, nil
}

// spillShard is one hot-tier stripe: a mutex plus that stripe's
// fingerprints.
type spillShard struct {
	mu sync.Mutex
	m  map[[16]byte]struct{}
}

// SpillStore is a two-tier visited-state store for state spaces that
// exceed RAM: a sharded in-memory hot tier of 128-bit FNV-1a fingerprints
// (the same fingerprint path as HashStore/ShardedStore) backed by sorted
// immutable runs of fingerprints on disk. When an insert pushes the hot
// tier past SpillConfig.BudgetBytes, its fingerprints are sorted and
// flushed to a new run file, and membership probes answer from the hot
// tier first and then the disk runs (per-run bloom summaries keep
// negative probes cheap; hits binary-search the file). When the run count
// passes SpillConfig.MergeRuns, all runs are compacted into one.
//
// SpillStore implements Store, BatchStore and HasStore, so every stateful
// engine — BFS, DFS and ParallelBFS, batched and per-key insert paths,
// proviso logic included — runs over it unchanged,
// with verdicts, search statistics and traces bit-identical to the
// in-memory fingerprint stores; only the spill-activity fields of Stats
// (SpillRuns, SpillBytes, DiskProbes) differ from an in-memory run. It is
// safe for concurrent use (it satisfies ConcurrentStore): per-key
// linearizability holds because a fingerprint is never absent from both
// tiers — a spill registers the new run before deleting the flushed
// entries from the hot tier, and both the hot check and the disk probe of
// an insert happen under the key's stripe lock.
//
// Like the other fingerprint stores, SpillStore trades a negligible
// collision probability for memory; exact-mode (full-key) storage does
// not spill. Close releases the run files (and the store's temporary
// directory, if it created one); it must not race with probes.
type SpillStore struct {
	budgetEntries int64
	mergeRuns     int
	dir           string
	ownDir        bool

	count       atomic.Int64 // distinct fingerprints recorded (Len)
	hotCount    atomic.Int64 // fingerprints currently in the hot tier
	diskProbes  atomic.Int64
	runsWritten atomic.Int64
	spillBytes  atomic.Int64

	runs atomic.Pointer[[]*spillRun]

	// spillMu serializes spills, merges and Close. Probes never take it:
	// they read the runs pointer. probeErr records the first disk-read
	// failure (probes have no error return; the search surfaces it via
	// Err).
	spillMu   sync.Mutex
	nextRunID int
	closed    bool

	probeErr atomic.Pointer[error]

	shards [shardCount]spillShard
}

// NewSpillStore returns an empty two-tier store spilling to cfg.Dir when
// the hot tier exceeds cfg.BudgetBytes.
func NewSpillStore(cfg SpillConfig) (*SpillStore, error) {
	if cfg.BudgetBytes <= 0 {
		return nil, fmt.Errorf("explore: SpillStore needs a positive memory budget, got %d", cfg.BudgetBytes)
	}
	s := &SpillStore{
		budgetEntries: cfg.BudgetBytes / hotEntryBytes,
		mergeRuns:     cfg.MergeRuns,
		dir:           cfg.Dir,
	}
	if s.budgetEntries < 1 {
		s.budgetEntries = 1
	}
	if s.mergeRuns <= 1 {
		s.mergeRuns = defaultMergeRuns
	}
	if s.dir == "" {
		dir, err := os.MkdirTemp("", "mpbasset-spill-*")
		if err != nil {
			return nil, fmt.Errorf("explore: SpillStore temp dir: %w", err)
		}
		s.dir, s.ownDir = dir, true
	} else if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: SpillStore dir: %w", err)
	}
	empty := []*spillRun{}
	s.runs.Store(&empty)
	return s, nil
}

// onDisk probes the disk tier for fp. Counted once per probe, not per
// run.
func (s *SpillStore) onDisk(fp [16]byte) bool {
	runs := *s.runs.Load()
	if len(runs) == 0 {
		return false
	}
	s.diskProbes.Add(1)
	for _, r := range runs {
		hit, err := r.contains(fp)
		if err != nil {
			s.recordProbeErr(err)
			return false
		}
		if hit {
			return true
		}
	}
	return false
}

func (s *SpillStore) recordProbeErr(err error) {
	s.probeErr.CompareAndSwap(nil, &err)
}

// Err returns the first disk-read error a probe encountered, if any.
// Membership probes have no error return; a failing read makes the
// affected probe answer "not present" (at worst re-exploring a state),
// and the error is surfaced here for the search's owner to check.
func (s *SpillStore) Err() error {
	if p := s.probeErr.Load(); p != nil {
		return *p
	}
	return nil
}

// seenFP records fp and reports whether it was already present in either
// tier. Both the hot check and the disk probe run under the stripe lock,
// which (together with register-before-delete in spill) guarantees the
// exactly-one-false-per-distinct-key contract under concurrency.
func (s *SpillStore) seenFP(fp [16]byte) bool {
	sh := &s.shards[fp[15]]
	sh.mu.Lock()
	if _, dup := sh.m[fp]; dup {
		sh.mu.Unlock()
		return true
	}
	if s.onDisk(fp) {
		sh.mu.Unlock()
		return true
	}
	if sh.m == nil {
		sh.m = make(map[[16]byte]struct{})
	}
	sh.m[fp] = struct{}{}
	sh.mu.Unlock()
	s.count.Add(1)
	if s.hotCount.Add(1) >= s.budgetEntries {
		s.maybeSpill()
	}
	return false
}

// Seen implements Store.
func (s *SpillStore) Seen(key string) bool { return s.seenFP(fingerprint(key)) }

// SeenBatch implements BatchStore: keys are grouped by stripe and each
// stripe lock is taken once per batch, mirroring ShardedStore.SeenBatch.
// Within a stripe, keys commit in index order, so an intra-batch
// duplicate reports false exactly at its first occurrence.
func (s *SpillStore) SeenBatch(keys []string) []bool {
	n := len(keys)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []bool{s.Seen(keys[0])}
	}
	dups := make([]bool, n)
	fps := make([][16]byte, n)
	done := make([]bool, n)
	for i, k := range keys {
		fps[i] = fingerprint(k)
	}
	var added int64
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		stripe := fps[i][15]
		sh := &s.shards[stripe]
		sh.mu.Lock()
		for j := i; j < n; j++ {
			if done[j] || fps[j][15] != stripe {
				continue
			}
			done[j] = true
			fp := fps[j]
			if _, dup := sh.m[fp]; dup {
				dups[j] = true
				continue
			}
			if s.onDisk(fp) {
				dups[j] = true
				continue
			}
			if sh.m == nil {
				sh.m = make(map[[16]byte]struct{})
			}
			sh.m[fp] = struct{}{}
			added++
		}
		sh.mu.Unlock()
	}
	if added > 0 {
		s.count.Add(added)
		if s.hotCount.Add(added) >= s.budgetEntries {
			s.maybeSpill()
		}
	}
	return dups
}

// Has implements HasStore: a non-mutating membership probe over both
// tiers, linearizable per key like Seen.
func (s *SpillStore) Has(key string) bool {
	fp := fingerprint(key)
	sh := &s.shards[fp[15]]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[fp]; ok {
		return true
	}
	return s.onDisk(fp)
}

// Len implements Store.
func (s *SpillStore) Len() int { return int(s.count.Load()) }

// ConcurrencySafe implements ConcurrentStore.
func (s *SpillStore) ConcurrencySafe() {}

// SpillStats implements SpillReporter: run files written (merges
// included), bytes written to disk, and probes that consulted the disk
// tier.
func (s *SpillStore) SpillStats() (runs int, spilledBytes, diskProbes int64) {
	return int(s.runsWritten.Load()), s.spillBytes.Load(), s.diskProbes.Load()
}

// maybeSpill flushes the hot tier if it is (still) over budget. TryLock:
// if another goroutine is already spilling, the budget is transiently
// exceeded by at most that spill's backlog and this caller moves on.
func (s *SpillStore) maybeSpill() {
	if !s.spillMu.TryLock() {
		return
	}
	defer s.spillMu.Unlock()
	if s.closed || s.hotCount.Load() < s.budgetEntries {
		return
	}
	if err := s.spillLocked(); err != nil {
		s.recordProbeErr(err)
	}
}

// spillLocked flushes every hot fingerprint to a new sorted run. Order
// matters for correctness: collect (copy, stripe by stripe) → write and
// register the run → only then delete the collected entries from the hot
// tier, so no fingerprint is ever absent from both tiers.
func (s *SpillStore) spillLocked() error {
	var all [][16]byte
	var spans [shardCount][2]int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		start := len(all)
		for fp := range sh.m {
			all = append(all, fp)
		}
		sh.mu.Unlock()
		spans[i] = [2]int{start, len(all)}
	}
	if len(all) == 0 {
		return nil
	}
	sorted := make([][16]byte, len(all))
	copy(sorted, all)
	slices.SortFunc(sorted, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) })

	run, err := s.writeRunLocked(sorted)
	if err != nil {
		return err
	}
	old := *s.runs.Load()
	next := make([]*spillRun, len(old), len(old)+1)
	copy(next, old)
	next = append(next, run)
	s.runs.Store(&next)

	// The run is visible to probes; now the flushed entries can leave the
	// hot tier. Entries inserted after the per-stripe collection above
	// stay (they are not in the run).
	for i := range s.shards {
		lo, hi := spans[i][0], spans[i][1]
		if lo == hi {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, fp := range all[lo:hi] {
			delete(sh.m, fp)
		}
		sh.mu.Unlock()
	}
	s.hotCount.Add(int64(-len(all)))

	if len(next) >= s.mergeRuns {
		return s.mergeLocked(next)
	}
	return nil
}

// writeRunLocked writes sorted fingerprints as a new run file and returns
// the registered-ready run.
func (s *SpillStore) writeRunLocked(sorted [][16]byte) (*spillRun, error) {
	s.nextRunID++
	path := filepath.Join(s.dir, fmt.Sprintf("run-%06d.fp", s.nextRunID))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("explore: spill run: %w", err)
	}
	w := bufio.NewWriter(f)
	bloom := newSpillBloom(len(sorted))
	for _, fp := range sorted {
		if _, err := w.Write(fp[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("explore: spill run %s: %w", path, err)
		}
		bloom.add(fp)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("explore: spill run %s: %w", path, err)
	}
	s.runsWritten.Add(1)
	s.spillBytes.Add(int64(len(sorted)) * 16)
	return &spillRun{
		f:     f,
		path:  path,
		n:     len(sorted),
		bloom: bloom,
		first: sorted[0],
		last:  sorted[len(sorted)-1],
	}, nil
}

// mergeLocked compacts runs into a single sorted run via a k-way merge of
// the (pairwise disjoint) run files, swaps it in, and releases the old
// files. Every probe consults the disk tier under its stripe lock, so
// after the swap a lock/unlock sweep of all stripes is a quiescence
// barrier: probes that loaded the old runs slice have finished, new ones
// see the merged run, and the superseded files can be closed immediately
// — open file descriptors track live runs, not total runs written.
func (s *SpillStore) mergeLocked(runs []*spillRun) error {
	total := 0
	readers := make([]*bufio.Reader, len(runs))
	heads := make([][16]byte, len(runs))
	alive := make([]bool, len(runs))
	for i, r := range runs {
		total += r.n
		if _, err := r.f.Seek(0, 0); err != nil {
			return fmt.Errorf("explore: spill merge: %w", err)
		}
		readers[i] = bufio.NewReaderSize(r.f, 1<<16)
		alive[i] = readNext(readers[i], &heads[i])
	}
	sorted := make([][16]byte, 0, total)
	for {
		best := -1
		for i := range runs {
			if alive[i] && (best < 0 || bytes.Compare(heads[i][:], heads[best][:]) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if n := len(sorted); n == 0 || sorted[n-1] != heads[best] {
			sorted = append(sorted, heads[best])
		}
		alive[best] = readNext(readers[best], &heads[best])
	}
	merged, err := s.writeRunLocked(sorted)
	if err != nil {
		return err
	}
	next := []*spillRun{merged}
	s.runs.Store(&next)
	for i := range s.shards {
		// Empty critical section on purpose: in-flight probes of the old
		// runs slice hold their stripe lock, so acquiring each once
		// drains them all.
		s.shards[i].mu.Lock()
		s.shards[i].mu.Unlock()
	}
	var firstErr error
	for _, r := range runs {
		if err := r.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		os.Remove(r.path)
	}
	return firstErr
}

func readNext(r *bufio.Reader, fp *[16]byte) bool {
	_, err := io.ReadFull(r, fp[:])
	return err == nil
}

// Close releases every run file and removes the files this store created
// (and its directory, when the store made a temporary one). It must not
// race with probes; call it once the search owning the store has
// returned. The store must not be used afterwards.
func (s *SpillStore) Close() error {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	empty := []*spillRun{}
	runs := *s.runs.Swap(&empty)
	for _, r := range runs {
		if err := r.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := os.Remove(r.path); err != nil && firstErr == nil && !os.IsNotExist(err) {
			firstErr = err
		}
	}
	if s.ownDir {
		if err := os.RemoveAll(s.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var (
	_ BatchStore      = (*SpillStore)(nil)
	_ HasStore        = (*SpillStore)(nil)
	_ ConcurrentStore = (*SpillStore)(nil)
	_ SpillReporter   = (*SpillStore)(nil)
	_ FailableStore   = (*SpillStore)(nil)
)
