package solverpool

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/procgraph"
	"repro/internal/taskgraph"
)

// cacheInstance is the instance the cache tests file their entries under.
func cacheInstance(t testing.TB) (*taskgraph.Graph, *procgraph.System) {
	t.Helper()
	return gen.PaperExample(), procgraph.Ring(3)
}

func TestResultCacheHitMissAndCounters(t *testing.T) {
	g, sys := cacheInstance(t)
	c := NewResultCache[string](1 << 20)
	k := CacheKey{Graph: 1, System: 2, Config: 3}
	if _, ok := c.Get(k, g, sys); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, g, sys, "payload", int64(len("payload")))
	got, ok := c.Get(k, g, sys)
	if !ok || got != "payload" {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	// A different config digest is a different entry.
	if _, ok := c.Get(CacheKey{Graph: 1, System: 2, Config: 4}, g, sys); ok {
		t.Fatal("config-digest variation hit the same entry")
	}
	c.NoteBypass()
	st := c.Stats()
	fp := g.Footprint() + sys.Footprint()
	if st.Hits != 1 || st.Misses != 2 || st.Bypasses != 1 || st.Collisions != 0 || st.Entries != 1 || st.Bytes != int64(len("payload"))+fp {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResultCacheConfirmsInstance: a key whose entry answered a different
// instance — a forged or colliding digest — is a miss counted as a
// collision, an equal instance decoded separately still hits and takes the
// entry over (so its next lookup is a pointer check), and the solve that
// follows a collision takes the key over.
func TestResultCacheConfirmsInstance(t *testing.T) {
	g, sys := cacheInstance(t)
	c := NewResultCache[string](1 << 20)
	k := CacheKey{Graph: 7, System: 8, Config: 9}
	c.Put(k, g, sys, "ring answer", 11)

	if _, ok := c.Get(k, g, procgraph.Chain(3)); ok {
		t.Fatal("an entry for ring:3 answered chain:3 under a forged key")
	}
	other := gen.PaperExample()
	if _, ok := c.Get(k, other, sys); !ok {
		t.Fatal("an equal instance behind different pointers missed")
	}
	if e := c.entries[k].Value.(*cacheEntry[string]); e.g != other || e.sys != sys {
		t.Fatal("a hit confirmed by the full comparison left the entry on the old instance")
	}
	if st := c.Stats(); st.Collisions != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one collision counted as a miss and one hit", st)
	}
	c.Put(k, g, procgraph.Chain(3), "chain answer", 12)
	if v, ok := c.Get(k, g, procgraph.Chain(3)); !ok || v != "chain answer" {
		t.Fatalf("after the re-solve Get = %q, %v; want the chain answer", v, ok)
	}
	if _, ok := c.Get(k, g, sys); ok {
		t.Fatal("the replaced entry still answers the first instance")
	}
}

func TestResultCacheLRUByteBudget(t *testing.T) {
	// Budget of 3 × 8-byte entries of one instance: inserting a fourth
	// evicts the least recently used entry, and a Get refreshes recency.
	g, sys := cacheInstance(t)
	fp := g.Footprint() + sys.Footprint()
	budget := 3 * (8 + fp)
	c := NewResultCache[string](budget)
	key := func(i int) CacheKey { return CacheKey{Graph: uint64(i)} }
	for i := 0; i < 3; i++ {
		c.Put(key(i), g, sys, fmt.Sprintf("entry-%02d", i), 8)
	}
	c.Get(key(0), g, sys) // 0 is now most recent; 1 is the LRU victim
	c.Put(key(3), g, sys, "entry-03", 8)
	if _, ok := c.Get(key(1), g, sys); ok {
		t.Fatal("LRU victim survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i), g, sys); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if st := c.Stats(); st.Bytes > budget || st.Entries != 3 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	// Replacing an entry adjusts the byte account instead of leaking it.
	c.Put(key(0), g, sys, "xx", 2)
	if st := c.Stats(); st.Bytes != 8+8+2+3*fp {
		t.Fatalf("bytes after replace = %d, want %d", st.Bytes, 8+8+2+3*fp)
	}
	// A value whose charge exceeds the whole budget is refused outright.
	c.Put(key(9), g, sys, "big", budget-fp+1)
	if _, ok := c.Get(key(9), g, sys); ok {
		t.Fatal("oversized value was admitted")
	}
}

// TestResultCacheChargesInstance: an entry is charged for the instance it
// keeps alive, so at a fixed result size the charge grows with the
// system's P×P matrices, and a budget that holds many entries on a small
// system holds few on a large one.
func TestResultCacheChargesInstance(t *testing.T) {
	g := gen.PaperExample()
	var prev int64
	for _, p := range []int{2, 16, 256} {
		c := NewResultCache[string](1 << 30)
		c.Put(CacheKey{}, g, procgraph.Complete(p), "r", 1)
		b := c.Stats().Bytes
		if b <= prev || b < 4*int64(p)*int64(p) {
			t.Fatalf("complete:%d charged %d bytes (previous %d), want growth and at least the 4·P² distance matrix", p, b, prev)
		}
		prev = b
	}
	sys := procgraph.Complete(256)
	budget := int64(4 << 20)
	c := NewResultCache[string](budget)
	for i := 0; i < 64; i++ {
		c.Put(CacheKey{Graph: uint64(i)}, g, sys, "r", 1)
	}
	if st := c.Stats(); st.Bytes > budget || st.Entries > int(budget/(4*256*256)) {
		t.Fatalf("budget %d held %+v on complete:256", budget, st)
	}
}

func TestResultCacheNilIsNoop(t *testing.T) {
	g, sys := cacheInstance(t)
	var c *ResultCache[string]
	if c != NewResultCache[string](0) {
		t.Fatal("NewResultCache(0) should return the nil no-op cache")
	}
	c.Put(CacheKey{}, g, sys, "x", 1)
	if _, ok := c.Get(CacheKey{}, g, sys); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.NoteBypass()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	g, sys := cacheInstance(t)
	c := NewResultCache[[]byte](1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := CacheKey{Graph: uint64(i % 37), Config: uint64(w % 2)}
				if data, ok := c.Get(k, g, sys); ok {
					if len(data) != 16 {
						t.Errorf("corrupt entry: %d bytes", len(data))
						return
					}
				}
				c.Put(k, g, sys, make([]byte, 16), 16)
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 1<<16 {
		t.Fatalf("budget exceeded under concurrency: %+v", st)
	}
}
