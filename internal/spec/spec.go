package spec

import (
	"sync"
	"sync/atomic"
)

// Tuning constants of the speculative scheduler. They bound memory and
// per-steal work, not correctness.
const (
	// MemoCap bounds the number of not-yet-consumed speculative expansion
	// records; speculators back off when the table is full.
	MemoCap = 1 << 13
	// QueueCap bounds the steal queue; when it overflows, the oldest
	// (shallowest) targets are dropped — they are the furthest from being
	// committed, so dropping them loses the least useful speculation.
	QueueCap = 4096
	// StealBudget is the number of states one stolen subtree may expand
	// before the thief reports back and steals afresh.
	StealBudget = 128
	// DefaultStealDepth is the default bound on how many events below a
	// stolen target a worker speculates (explore.Options.StealDepth
	// overrides it).
	DefaultStealDepth = 8
)

// Put is the outcome of a memo insert.
type Put int

const (
	// Stored means the record was inserted.
	Stored Put = iota
	// Dup means another speculator already recorded the key.
	Dup
	// Full means the table is at capacity; the thief backs off.
	Full
)

// stripe is one lock-striped shard of a Memo.
type stripe[R any] struct {
	mu sync.Mutex
	m  map[string]*R
}

// Memo is the striped table of speculative expansion records, keyed by
// state (or product) key. Speculators insert, the commit walk consumes;
// entries live until the walk first reaches their state (or the search
// ends). The capacity bound keeps runaway speculation from holding
// unbounded state. The zero value is ready to use.
type Memo[R any] struct {
	stripes [64]stripe[R]
	count   atomic.Int64
}

// FNV-1a's 128-bit offset basis and prime, low words. The low 64 bits of
// a 128-bit FNV-1a product depend only on the low words of the state and
// the prime, so this loop yields exactly the low word of the visited
// stores' 128-bit key fingerprint, allocation-free.
const (
	fnvOffset128Lo = 0x62b821756295c58d
	fnvPrime128Lo  = 0x13b
)

// stripeIndex picks key's shard from the low byte of its 128-bit FNV-1a
// fingerprint — the byte the sharded visited store stripes by, well mixed
// even for keys that share long prefixes. Only load balance depends on it.
func stripeIndex(key string) int {
	h := uint64(fnvOffset128Lo)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime128Lo
	}
	return int(h & 63)
}

func (m *Memo[R]) stripe(key string) *stripe[R] {
	return &m.stripes[stripeIndex(key)]
}

// Full reports whether the table is at capacity. Thieves check it before
// paying for an expansion; Put re-checks, so the answer being stale only
// costs (or saves) one speculative build.
func (m *Memo[R]) Full() bool { return m.count.Load() >= MemoCap }

// Put inserts rec under key unless the key is present or the table full.
func (m *Memo[R]) Put(key string, rec *R) Put {
	if m.Full() {
		return Full
	}
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m == nil {
		st.m = make(map[string]*R)
	}
	if _, ok := st.m[key]; ok {
		return Dup
	}
	st.m[key] = rec
	m.count.Add(1)
	return Stored
}

// Contains reports whether a record for key is present.
func (m *Memo[R]) Contains(key string) bool {
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.m[key]
	return ok
}

// Take removes and returns the record for key, or nil.
func (m *Memo[R]) Take(key string) *R {
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.m[key]
	if !ok {
		return nil
	}
	delete(st.m, key)
	m.count.Add(-1)
	return rec
}

// Queue is the steal queue: the commit walk publishes steal targets, idle
// speculators pop from the deep end — the most recently published targets
// first, which sit at the depths the walk is working and are therefore
// the least likely to have gone stale by the time their records are built.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []T
	closed bool
}

// NewQueue returns an empty, open steal queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond.L = &q.mu
	return q
}

// Publish appends targets; the last one is popped first, so callers pass
// a frame's pending siblings in reverse sibling order. Overflow drops the
// oldest targets. Publishing to a closed queue is a no-op.
func (q *Queue[T]) Publish(ts ...T) {
	if len(ts) == 0 {
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, ts...)
	if over := len(q.items) - QueueCap; over > 0 {
		q.items = append(q.items[:0], q.items[over:]...)
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Pop blocks for the next target from the deep end; false means the queue
// was closed and drained.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	t := q.items[len(q.items)-1]
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return t, true
}

// Close wakes every blocked Pop and drops the pending targets.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}
