// Package memo provides SnapMap, a concurrent read-optimized memo map
// for values that are pure functions of their keys.
package memo

import (
	"sync"
	"sync/atomic"
)

// SnapMap is a concurrent memo map whose read path on a settled key is
// one atomic pointer load plus a plain map lookup — no locks, no
// read-modify-write atomics, no interface boxing — which is what
// search hot paths need: the profiler database and the performance
// model's stage cache are queried millions of times per search, and
// both sync.RWMutex (two atomic RMWs per lookup) and sync.Map
// (interface-keyed hashing, pointer chasing) showed up prominently in
// CPU profiles.
//
// Writes go to a small mutex-guarded overflow map; once the overflow
// exceeds the merge threshold it is folded into a freshly copied
// snapshot and published atomically. Until a key is merged, readers
// that miss the snapshot fall through to the overflow under the
// mutex — a bounded, shrinking set of keys. Correctness requires that
// every value is a pure function of its key: a racing reader that
// misses both maps simply recomputes the same value and stores it
// again.
//
// The zero value is ready to use with the default merge threshold.
type SnapMap[K comparable, V any] struct {
	snap atomic.Pointer[map[K]V]

	mu   sync.Mutex
	over map[K]V

	// Threshold overrides the default overflow size that triggers a
	// merge. Merging copies the whole snapshot, so total copy work is
	// entries²/threshold: small caches want a small threshold (fast
	// promotion to the lock-free path), large ones a bigger threshold
	// (bounded merge churn). Read on the store path; set it before
	// concurrent use.
	Threshold int
}

// DefaultThreshold is the merge threshold when Threshold is unset.
const DefaultThreshold = 256

// Load returns the memoized value for k.
func (m *SnapMap[K, V]) Load(k K) (V, bool) {
	if s := m.snap.Load(); s != nil {
		if v, ok := (*s)[k]; ok {
			return v, true
		}
	}
	m.mu.Lock()
	v, ok := m.over[k]
	m.mu.Unlock()
	return v, ok
}

// Store memoizes v for k, merging the overflow into a new snapshot
// once it grows past the threshold. A key a concurrent merge already
// published is left alone, so no key ever sits in both maps and Len
// stays exact.
func (m *SnapMap[K, V]) Store(k K, v V) {
	m.mu.Lock()
	if s := m.snap.Load(); s != nil {
		if _, ok := (*s)[k]; ok {
			m.mu.Unlock()
			return
		}
	}
	if m.over == nil {
		m.over = make(map[K]V)
	}
	m.over[k] = v
	t := m.Threshold
	if t <= 0 {
		t = DefaultThreshold
	}
	if len(m.over) > t {
		m.mergeLocked()
	}
	m.mu.Unlock()
}

// mergeLocked publishes snapshot ∪ overflow as the new snapshot and
// empties the overflow. Callers hold m.mu.
func (m *SnapMap[K, V]) mergeLocked() {
	var old map[K]V
	if s := m.snap.Load(); s != nil {
		old = *s
	}
	next := make(map[K]V, len(old)+len(m.over))
	for k, v := range old {
		next[k] = v
	}
	for k, v := range m.over {
		next[k] = v
	}
	m.snap.Store(&next)
	m.over = make(map[K]V)
}

// Len returns the number of memoized entries.
func (m *SnapMap[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.over)
	if s := m.snap.Load(); s != nil {
		n += len(*s)
	}
	return n
}

// ForEach calls fn for every entry, snapshot first, then overflow.
func (m *SnapMap[K, V]) ForEach(fn func(K, V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.snap.Load(); s != nil {
		for k, v := range *s {
			fn(k, v)
		}
	}
	for k, v := range m.over {
		fn(k, v)
	}
}

// Replace swaps the entire contents for db.
func (m *SnapMap[K, V]) Replace(db map[K]V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := make(map[K]V, len(db))
	for k, v := range db {
		snap[k] = v
	}
	m.snap.Store(&snap)
	m.over = make(map[K]V)
}
