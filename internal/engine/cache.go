package engine

import (
	"container/list"
	"errors"
	"sync"
)

// Cache is a generic single-flight memoization map: the first Get for a
// key runs fill exactly once while concurrent Gets for the same key wait
// for it and share its outcome. Distinct keys fill concurrently; nothing
// holds the map lock while filling.
//
// Successful values stay cached; a failed fill is returned to every
// caller that waited on it but is not cached, so the next Get retries —
// one transient failure must not poison a key forever. If fill panics,
// the panic propagates to the caller that ran it, the entry is unpinned,
// and the waiters receive an error.
//
// The zero value is ready to use and unbounded, so a Cache can sit
// directly inside a struct literal (the artifact store and the
// experiment env's ablation sub-environments rely on this). NewCache
// builds one that holds at most a fixed number of values and evicts the
// least recently used, which is what an open-ended request space needs.
// A Cache must not be copied after first use.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int // 0: unbounded
	m   map[K]*cacheEntry[K, V]
	ll  list.List // filled entries of a bounded cache, front = most recently used
}

type cacheEntry[K comparable, V any] struct {
	key    K
	done   chan struct{} // closed when the fill completes
	filled bool          // set under the cache lock once the fill succeeded
	val    V
	err    error
	elem   *list.Element // recency position; nil in an unbounded cache
}

// Outcome classifies how a Get was served. A serving layer that reports
// a hit rate needs the three-way distinction: a caller coalesced onto an
// in-flight fill waited on a fresh computation and must not be counted as
// a cache hit, but it did not run a computation of its own either.
type Outcome int

const (
	// Miss: this call ran the fill.
	Miss Outcome = iota
	// Hit: the value was already cached; nothing was computed.
	Hit
	// Coalesced: another call's in-flight fill was joined and its outcome
	// shared.
	Coalesced
)

// String names the outcome for counters and logs.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// ErrCacheFull is returned by GetBounded when the cache already holds its
// limit of distinct keys and the requested key is not among them.
var ErrCacheFull = errors.New("engine: cache at capacity")

// errFillPanicked is what waiters coalesced onto a panicking fill receive.
var errFillPanicked = errors.New("engine: cache fill panicked")

// NewCache returns a Cache holding at most capacity values, evicting the
// least recently used beyond that. capacity <= 0 selects 1.
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1)}
}

// Cap reports the capacity the cache was built with; 0 means unbounded.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Len reports how many keys the cache holds, including in-flight fills.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Get returns the value for key, running fill on a miss. The returned
// Outcome says how this call was served: Hit for a filled entry, Miss
// when this call ran fill, and Coalesced when it joined a stranger's
// in-flight fill. A coalesced call waited on a fresh computation —
// counting it as a hit overreports the hit rate under concurrency.
func (c *Cache[K, V]) Get(key K, fill func() (V, error)) (V, Outcome, error) {
	return c.GetBounded(key, 0, fill)
}

// GetBounded is Get with an atomic refuse-at-limit: when limit > 0 and
// the cache already holds limit distinct keys, a request for a new key
// returns ErrCacheFull without computing anything, while known keys keep
// serving. It admits rather than evicts. The existence check and the
// slot reservation happen under one lock acquisition, so concurrent
// first-time requests for distinct new keys cannot all pass a
// "len < limit" check and overshoot the cap — the TOCTOU a separate
// Len()/Get() sequence is exposed to. limit <= 0 means no limit (Get).
func (c *Cache[K, V]) GetBounded(key K, limit int, fill func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if e.filled {
			if e.elem != nil {
				c.ll.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			return e.val, Hit, nil
		}
		c.mu.Unlock() // in flight: wait for the filler
		<-e.done
		return e.val, Coalesced, e.err
	}
	if limit > 0 && len(c.m) >= limit {
		c.mu.Unlock()
		var zero V
		return zero, Miss, ErrCacheFull
	}
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[K, V])
	}
	e := &cacheEntry[K, V]{key: key, done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	finished := false
	defer func() {
		if finished {
			return
		}
		// fill panicked: unpin the entry and wake waiters with an error so
		// they are not stranded, then let the panic propagate.
		e.err = errFillPanicked
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
		close(e.done)
	}()
	e.val, e.err = fill()
	finished = true

	c.mu.Lock()
	if e.err != nil {
		delete(c.m, key) // errors are not cached; the next Get retries
	} else {
		e.filled = true
		if c.cap > 0 {
			e.elem = c.ll.PushFront(e)
			for c.ll.Len() > c.cap {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.m, oldest.Value.(*cacheEntry[K, V]).key)
			}
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, Miss, e.err
}
