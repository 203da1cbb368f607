package spec

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStripeIndexMatchesFingerprint pins the stripe hash to the low byte
// of the 128-bit FNV-1a fingerprint the visited stores key by.
func TestStripeIndexMatchesFingerprint(t *testing.T) {
	for _, key := range []string{"", "a", "P0,0,0|A1,0,0[]", "a much longer key with a shared prefix 1", "a much longer key with a shared prefix 2"} {
		h := fnv.New128a()
		h.Write([]byte(key))
		sum := h.Sum(nil)
		if got, want := stripeIndex(key), int(sum[15]&63); got != want {
			t.Errorf("stripeIndex(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestMemo(t *testing.T) {
	var m Memo[int]
	one := 1
	if got := m.Put("k", &one); got != Stored {
		t.Fatalf("first Put = %d, want Stored", got)
	}
	if got := m.Put("k", &one); got != Dup {
		t.Fatalf("second Put = %d, want Dup", got)
	}
	if !m.Contains("k") || m.Contains("other") {
		t.Fatal("Contains disagrees with the inserted keys")
	}
	if rec := m.Take("k"); rec != &one {
		t.Fatalf("Take = %v, want the stored record", rec)
	}
	if m.Contains("k") || m.Take("k") != nil {
		t.Fatal("Take did not remove the record")
	}
	for i := 0; i < MemoCap; i++ {
		if got := m.Put(fmt.Sprint(i), &one); got != Stored {
			t.Fatalf("Put #%d = %d, want Stored", i, got)
		}
	}
	if !m.Full() || m.Put("over", &one) != Full {
		t.Fatal("a table at capacity accepted another record")
	}
}

func TestQueue(t *testing.T) {
	q := NewQueue[int]()
	q.Publish(3, 2, 1)
	for _, want := range []int{1, 2, 3} {
		if got, ok := q.Pop(); !ok || got != want {
			t.Fatalf("Pop = %d, %v; want %d", got, ok, want)
		}
	}
	over := make([]int, QueueCap+10)
	for i := range over {
		over[i] = i
	}
	q.Publish(over...)
	if got, _ := q.Pop(); got != len(over)-1 {
		t.Fatalf("Pop after overflow = %d, want the newest target %d", got, len(over)-1)
	}
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a closed queue returned a target")
	}
	q.Publish(7)
	if _, ok := q.Pop(); ok {
		t.Fatal("Publish on a closed queue was accepted")
	}
}

// TestConcurrentUse drives a memo and a queue from several goroutines at
// once, the way a commit walk and its speculators do; run it under -race.
func TestConcurrentUse(t *testing.T) {
	var (
		m          Memo[int]
		q          = NewQueue[int]()
		popped     atomic.Int64
		prod, cons sync.WaitGroup
	)
	const workers, perWorker = 4, 500
	for w := 0; w < workers; w++ {
		cons.Add(1)
		go func() {
			defer cons.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				key := fmt.Sprint(v)
				if m.Put(key, &v) != Stored || !m.Contains(key) || m.Take(key) != &v {
					t.Errorf("record %s lost", key)
				}
				popped.Add(1)
			}
		}()
		prod.Add(1)
		go func(w int) {
			defer prod.Done()
			for i := 0; i < perWorker; i++ {
				q.Publish(w*perWorker + i)
			}
		}(w)
	}
	prod.Wait()
	q.Close()
	cons.Wait()
	if n := popped.Load(); n > workers*perWorker {
		t.Errorf("popped %d targets, only %d published", n, workers*perWorker)
	}
}
