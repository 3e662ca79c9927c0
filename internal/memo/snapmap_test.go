package memo

import (
	"sync"
	"testing"
)

func TestSnapMapBasics(t *testing.T) {
	var m SnapMap[int, string]
	if _, ok := m.Load(1); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Store(1, "one")
	m.Store(2, "two")
	if v, ok := m.Load(1); !ok || v != "one" {
		t.Fatalf("Load(1) = %q, %v; want \"one\", true", v, ok)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestSnapMapMerge drives the overflow past the threshold so entries
// are promoted into the snapshot, and checks nothing is lost or
// duplicated across the merge boundary.
func TestSnapMapMerge(t *testing.T) {
	m := SnapMap[int, int]{Threshold: 8}
	const n = 100
	for i := 0; i < n; i++ {
		m.Store(i, i*i)
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Load(i); !ok || v != i*i {
			t.Fatalf("Load(%d) = %d, %v; want %d, true", i, v, ok, i*i)
		}
	}
	seen := make(map[int]int)
	m.ForEach(func(k, v int) { seen[k] = v })
	if len(seen) != n {
		t.Fatalf("ForEach visited %d entries, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != k*k {
			t.Fatalf("ForEach saw %d → %d, want %d", k, v, k*k)
		}
	}
}

// TestSnapMapStoreAfterMergeKeepsLenExact replays, sequentially, the
// interleaving a racing reader produces: it misses a stale snapshot,
// a concurrent Store merges the key into the snapshot, and the reader
// then stores its recomputed value. The key must not land in both maps.
func TestSnapMapStoreAfterMergeKeepsLenExact(t *testing.T) {
	m := SnapMap[string, int]{Threshold: 1}
	m.Store("a", 1)
	m.Store("b", 2) // overflow exceeds the threshold: merge
	m.Store("a", 1) // the late store of an already merged key
	n := 0
	m.ForEach(func(string, int) { n++ })
	if got := m.Len(); got != n || n != 2 {
		t.Fatalf("Len = %d, ForEach visited %d; want 2 and 2", got, n)
	}
}

func TestSnapMapReplace(t *testing.T) {
	var m SnapMap[string, int]
	m.Store("stale", 1)
	m.Replace(map[string]int{"a": 10, "b": 20})
	if _, ok := m.Load("stale"); ok {
		t.Fatal("Replace kept a pre-existing entry")
	}
	if v, ok := m.Load("a"); !ok || v != 10 {
		t.Fatalf("Load(a) = %d, %v; want 10, true", v, ok)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestSnapMapConcurrent hammers Load/Store from many goroutines with a
// tiny threshold so merges happen constantly. Values are pure functions
// of their keys — the SnapMap correctness precondition — so every hit
// must return the canonical value. Run under -race in make ci.
func TestSnapMapConcurrent(t *testing.T) {
	m := SnapMap[int, int]{Threshold: 4}
	const (
		workers = 8
		keys    = 64
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (seed*31 + r) % keys
				if v, ok := m.Load(k); ok {
					if v != k*3 {
						t.Errorf("Load(%d) = %d, want %d", k, v, k*3)
						return
					}
				} else {
					m.Store(k, k*3)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if v, ok := m.Load(k); !ok || v != k*3 {
			t.Fatalf("after run: Load(%d) = %d, %v; want %d, true", k, v, ok, k*3)
		}
	}
	n := 0
	m.ForEach(func(int, int) { n++ })
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, ForEach visited %d", got, n)
	}
}
