package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight checks that concurrent Gets for one key run the
// fill exactly once and all observe its value.
func TestCacheSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	const goroutines = 32
	vals := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.Get("deck/medium", func() (int, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[g] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for g, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d, want 42", g, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

// TestCacheDistinctKeysConcurrent checks that different keys do not
// serialize behind one another.
func TestCacheDistinctKeysConcurrent(t *testing.T) {
	var c Cache[int, int]
	const keys = 16
	gate := make(chan struct{})
	var inFlight atomic.Int32
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = c.Get(k, func() (int, error) {
				// Every key's fill blocks until all fills have started;
				// this deadlocks if the cache holds its lock while filling.
				if inFlight.Add(1) == keys {
					close(gate)
				}
				<-gate
				return k, nil
			})
		}()
	}
	wg.Wait()
	if c.Len() != keys {
		t.Fatalf("Len() = %d, want %d", c.Len(), keys)
	}
}

// TestCacheZeroValue checks a zero-value cache inside a struct literal
// works and is unbounded, as the artifact store and the ablation
// sub-environments require.
func TestCacheZeroValue(t *testing.T) {
	type holder struct {
		c Cache[int, int]
	}
	h := &holder{}
	if h.c.Cap() != 0 {
		t.Fatalf("zero-value Cap = %d, want 0 (unbounded)", h.c.Cap())
	}
	const n = 100
	for i := 0; i < n; i++ {
		if v, _, err := h.c.Get(i, func() (int, error) { return i * i, nil }); err != nil || v != i*i {
			t.Fatalf("Get(%d) = %d, %v; want %d, nil", i, v, err, i*i)
		}
	}
	if h.c.Len() != n {
		t.Fatalf("Len = %d, want %d (nothing evicted)", h.c.Len(), n)
	}
}

func TestLRUHitMissEvict(t *testing.T) {
	c := NewCache[int, string](2)
	if c.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", c.Cap())
	}
	fills := 0
	get := func(k int) (string, Outcome) {
		v, o, err := c.Get(k, func() (string, error) {
			fills++
			return fmt.Sprintf("v%d", k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, o
	}

	if v1, _ := get(1); v1 != "v1" {
		t.Fatal("wrong value for 1")
	}
	if v2, _ := get(2); v2 != "v2" {
		t.Fatal("wrong value for 2")
	}
	if fills != 2 || c.Len() != 2 {
		t.Fatalf("fills=%d len=%d, want 2/2", fills, c.Len())
	}
	if _, o := get(1); o != Hit || fills != 2 { // 1 is now MRU
		t.Fatalf("hit recomputed: outcome=%v fills=%d", o, fills)
	}
	get(3) // evicts 2 (LRU)
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if v, o := get(1); o != Hit || v != "v1" {
		t.Fatalf("1 should have survived, got %q/%v", v, o)
	}
	if _, o := get(2); o != Miss || fills != 4 {
		t.Fatalf("2 should have been evicted and refilled: outcome=%v fills=%d, want miss/4", o, fills)
	}
}

func TestLRUErrorsNotCached(t *testing.T) {
	for name, c := range map[string]*Cache[string, int]{
		"bounded":   NewCache[string, int](4),
		"unbounded": {},
	} {
		boom := errors.New("boom")
		calls := 0
		_, _, err := c.Get("k", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if c.Len() != 0 {
			t.Fatalf("%s: failed fill cached: len=%d", name, c.Len())
		}
		v, o, err := c.Get("k", func() (int, error) { calls++; return 7, nil })
		if err != nil || v != 7 || o != Miss {
			t.Fatalf("%s: retry: v=%d outcome=%v err=%v", name, v, o, err)
		}
		if calls != 2 {
			t.Fatalf("%s: calls=%d, want 2", name, calls)
		}
	}
}

// TestLRUSingleFlight checks concurrent Gets for one key on a bounded
// cache share a single computation and all observe its value.
func TestLRUSingleFlight(t *testing.T) {
	c := NewCache[string, int](4)
	var fills atomic.Int32
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Get("k", func() (int, error) {
				fills.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fills=%d, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
}

// TestLRUPanicPropagatesAndUnpins checks a panicking fill propagates to
// the caller that ran it, wakes a coalesced waiter with an error rather
// than a zero value, and leaves the key free for a later fill.
func TestLRUPanicPropagatesAndUnpins(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan bool)
	go func() {
		defer func() { panicked <- recover() != nil }()
		c.Get("k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	arrived := make(chan struct{})
	waiter := make(chan error)
	go func() {
		close(arrived) // next is Get; the fill is still blocked
		_, _, err := c.Get("k", func() (int, error) {
			t.Error("waiter ran the fill")
			return 0, nil
		})
		waiter <- err
	}()
	<-arrived
	time.Sleep(50 * time.Millisecond) // settle the waiter onto the in-flight fill
	close(release)
	if !<-panicked {
		t.Fatal("panic did not propagate")
	}
	if err := <-waiter; err == nil {
		t.Fatal("waiter on a panicked fill got a nil error")
	}
	// The key must not be stuck in flight: a later Get computes fresh.
	v, o, err := c.Get("k", func() (int, error) { return 1, nil })
	if err != nil || v != 1 || o != Miss {
		t.Fatalf("after panic: v=%d outcome=%v err=%v", v, o, err)
	}
}

// TestLRUOutcomes pins the three-way hit/miss/coalesced classification:
// the first Get for a key is a miss, callers that join its in-flight fill
// are coalesced (not hits — they waited on a fresh computation), and only
// a Get against the filled entry is a hit. This is the regression test for
// the serving layer's hit-rate miscount, at the primitive level.
func TestLRUOutcomes(t *testing.T) {
	c := NewCache[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})

	var mu sync.Mutex
	counts := map[Outcome]int{}
	record := func(o Outcome) {
		mu.Lock()
		counts[o]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, o, err := c.Get("k", func() (int, error) {
			close(started) // entry is registered; coalescers are now guaranteed
			<-release
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		record(o)
	}()
	<-started

	const coalescers = 3
	var arrived sync.WaitGroup
	for i := 0; i < coalescers; i++ {
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done() // next instruction is Get; the fill is still blocked
			_, o, err := c.Get("k", func() (int, error) {
				t.Error("coalescer ran the fill")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			record(o)
		}()
	}
	// The fill cannot complete before release, so every coalescer that
	// reaches Get first is guaranteed the in-flight path; arrived.Wait plus
	// a settle window puts them there before the release.
	arrived.Wait()
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	_, o, err := c.Get("k", func() (int, error) {
		t.Error("hit ran the fill")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	record(o)

	if counts[Miss] != 1 || counts[Coalesced] != coalescers || counts[Hit] != 1 {
		t.Fatalf("outcomes miss=%d coalesced=%d hit=%d, want 1/%d/1",
			counts[Miss], counts[Coalesced], counts[Hit], coalescers)
	}
}

func TestLRUOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced", Outcome(99): "unknown"} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestLRUZeroCapacityClamped(t *testing.T) {
	c := NewCache[int, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", c.Cap())
	}
	c.Get(1, func() (int, error) { return 1, nil })
	c.Get(2, func() (int, error) { return 2, nil })
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
}

func TestGetBoundedRefusesNewKeysAtCap(t *testing.T) {
	var c Cache[int, int]
	for i := 0; i < 4; i++ {
		if _, _, err := c.GetBounded(i, 4, func() (int, error) { return i, nil }); err != nil {
			t.Fatalf("key %d under cap: %v", i, err)
		}
	}
	if _, _, err := c.GetBounded(99, 4, func() (int, error) { return 0, nil }); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("new key at cap: %v, want ErrCacheFull", err)
	}
	// Known keys keep serving at the cap, without recomputing.
	v, o, err := c.GetBounded(2, 4, func() (int, error) {
		t.Error("known key recomputed")
		return -1, nil
	})
	if err != nil || v != 2 || o != Hit {
		t.Fatalf("known key at cap: v=%d outcome=%v err=%v", v, o, err)
	}
	// limit <= 0 is unbounded.
	if _, _, err := c.GetBounded(99, 0, func() (int, error) { return 99, nil }); err != nil {
		t.Fatalf("unbounded: %v", err)
	}
}

// TestGetBoundedConcurrentCap is the TOCTOU regression test at the
// primitive level: a burst of first-time requests for distinct new keys,
// far more than the cap, must never push the cache past it — the check
// and the slot reservation are one atomic step, not a Len() peek
// followed by a separate Get.
func TestGetBoundedConcurrentCap(t *testing.T) {
	const (
		cap     = 16
		hammers = 128
	)
	var c Cache[string, int]
	var admitted, refused atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, err := c.GetBounded(fmt.Sprintf("key-%d", i), cap, func() (int, error) { return i, nil })
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrCacheFull):
				refused.Add(1)
			default:
				t.Errorf("key %d: unexpected error %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := c.Len(); got > cap {
		t.Fatalf("cache overshot the cap: len=%d > %d", got, cap)
	}
	if admitted.Load() != cap || refused.Load() != hammers-cap {
		t.Fatalf("admitted=%d refused=%d, want %d/%d", admitted.Load(), refused.Load(), cap, hammers-cap)
	}
}
