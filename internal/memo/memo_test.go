package memo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// put stores val under key through Do (a cold compute that reports
// size), the only way a value enters the cache.
func put(t *testing.T, c *Cache, key string, val any, size int64) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func(context.Context) (any, int64, error) {
		return val, size, nil
	}); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

// errAbsent is what lookup's compute returns, so probing an absent key
// stores nothing.
var errAbsent = errors.New("absent")

// lookup reports the value stored under key. It stands in for a plain
// get: a Do whose compute records that it ran means the key was not
// stored, and the compute's error keeps the probe from storing it.
func lookup(c *Cache, key string) (any, bool) {
	var ran atomic.Bool
	v, _, _ := c.Do(context.Background(), key, func(context.Context) (any, int64, error) {
		ran.Store(true)
		return nil, 0, errAbsent
	})
	return v, !ran.Load()
}

// TestGetPutLRUOrder: a hit (the get) marks its entry most recently
// used, and a completed compute (the put) evicts the least recently
// used entries beyond the byte bound.
func TestGetPutLRUOrder(t *testing.T) {
	c := New("t", 30)
	put(t, c, "a", 1, 10)
	put(t, c, "b", 2, 10)
	put(t, c, "c", 3, 10)
	// Touch "a" so "b" is now least recently used.
	if v, ok := lookup(c, "a"); !ok || v.(int) != 1 {
		t.Fatalf("lookup(a) = %v, %v", v, ok)
	}
	put(t, c, "d", 4, 10) // exceeds 30 bytes: evicts "b"
	if _, ok := lookup(c, "b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := lookup(c, k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("bytes/entries = %d/%d, want 30/3", st.Bytes, st.Entries)
	}
}

// TestPutReplaceAdjustsBytes: a compute abandoned by its last waiter
// can still finish after a fresh compute stored the key; its value
// replaces the entry and the byte charge follows the new size.
func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New("t", 100)
	gate := make(chan struct{})
	finished := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "a", func(context.Context) (any, int64, error) {
			defer close(finished)
			<-gate // ignores its cancellation, as a non-cooperative stage may
			return 1, 10, nil
		})
		left <- err
	}()
	waitFor(t, "the first compute to open the entry", func() bool { return c.Stats().Waiters == 1 })
	cancel()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do err = %v, want context.Canceled", err)
	}
	put(t, c, "a", 2, 30)
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 {
		t.Fatalf("bytes/entries = %d/%d, want 30/1", st.Bytes, st.Entries)
	}
	close(gate)
	<-finished
	waitFor(t, "the late compute to replace the entry", func() bool { return c.Stats().Bytes == 10 })
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if v, _ := lookup(c, "a"); v.(int) != 1 {
		t.Fatalf("replace did not take: %v", v)
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New("t", 10)
	put(t, c, "big", 1, 11)
	if _, ok := lookup(c, "big"); ok {
		t.Fatal("oversized value must not be stored")
	}
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("bytes = %d, want 0", st.Bytes)
	}
}

func TestDisabledCache(t *testing.T) {
	c := New("t", 0)
	put(t, c, "a", 1, 1)
	if _, ok := lookup(c, "a"); ok {
		t.Fatal("maxBytes <= 0 must disable storage")
	}
	var nilCache *Cache
	put(t, nilCache, "a", 1, 1) // must not panic
	if _, ok := lookup(nilCache, "a"); ok {
		t.Fatal("nil cache lookup must miss")
	}
}

func TestPurge(t *testing.T) {
	c := New("t", 100)
	put(t, c, "a", 1, 10)
	put(t, c, "b", 2, 10)
	c.Purge()
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("purge left bytes/entries = %d/%d", st.Bytes, st.Entries)
	}
	if _, ok := lookup(c, "a"); ok {
		t.Fatal("a should be gone")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("purge must not count as evictions, got %d", st.Evictions)
	}
}

// TestByteBoundUnderConcurrentLoad hammers one small cache from many
// goroutines and checks the byte bound is never exceeded (observed at
// quiescence and spot-checked during the run) and accounting stays
// consistent. Run with -race.
func TestByteBoundUnderConcurrentLoad(t *testing.T) {
	const maxBytes = 1 << 10
	c := New("t", maxBytes)
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	// Sampler: the bound must hold mid-flight, not just at quiescence.
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := c.Stats(); st.Bytes > maxBytes {
				t.Errorf("bytes %d exceeds bound %d", st.Bytes, maxBytes)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(64))
				if rng.Intn(2) == 0 {
					lookup(c, k)
					continue
				}
				size := int64(1 + rng.Intn(200))
				c.Do(context.Background(), k, func(context.Context) (any, int64, error) {
					return i, size, nil
				})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-samplerDone
	st := c.Stats()
	if st.Bytes > maxBytes {
		t.Fatalf("final bytes %d exceeds bound %d", st.Bytes, maxBytes)
	}
	if st.Entries < 0 || st.Bytes < 0 {
		t.Fatalf("negative accounting: %+v", st)
	}
}

func TestKeyInjectivity(t *testing.T) {
	// Adjacent fields must not re-associate.
	a := NewKey("d").Str("ab").Str("c").Sum()
	b := NewKey("d").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("string fields re-associated")
	}
	// Type tags separate equal byte patterns: this float's bit pattern
	// is exactly the integer 1's encoding.
	if NewKey("d").I64(1).Sum() == NewKey("d").F64(math.Float64frombits(1)).Sum() {
		t.Fatal("int and float fields collided")
	}
	// Domains separate identical field sequences.
	if NewKey("d1").Int(7).Sum() == NewKey("d2").Int(7).Sum() {
		t.Fatal("domains collided")
	}
	// Slice lengths are part of the identity.
	if NewKey("d").Ints([]int{1, 2}).Ints([]int{3}).Sum() == NewKey("d").Ints([]int{1}).Ints([]int{2, 3}).Sum() {
		t.Fatal("int slices re-associated")
	}
	// Same sequence, same key.
	if NewKey("d").Str("x").F64(2.5).Bool(true).Sum() != NewKey("d").Str("x").F64(2.5).Bool(true).Sum() {
		t.Fatal("identical sequences should produce identical keys")
	}
}

func TestContextEnable(t *testing.T) {
	ctx := context.Background()
	if Enabled(ctx) {
		t.Fatal("memo must default off")
	}
	on := WithEnabled(ctx)
	if !Enabled(on) {
		t.Fatal("WithEnabled should enable")
	}
	if !Enabled(context.WithValue(on, "k", "v")) { //nolint:staticcheck // deliberate derived ctx
		t.Fatal("enable must survive derived contexts")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	c1 := Register(New("zz_test_b", 100))
	c2 := Register(New("zz_test_a", 100))
	put(t, c1, "x", 1, 10)
	put(t, c2, "y", 2, 20)
	lookup(c2, "y")
	snap := Snapshot()
	var sawA, sawB bool
	lastName := ""
	for _, st := range snap {
		if st.Name < lastName {
			t.Fatalf("snapshot not sorted: %q after %q", st.Name, lastName)
		}
		lastName = st.Name
		switch st.Name {
		case "zz_test_a":
			sawA = true
			if st.Hits != 1 || st.Bytes != 20 {
				t.Fatalf("zz_test_a stats: %+v", st)
			}
		case "zz_test_b":
			sawB = true
		}
	}
	if !sawA || !sawB {
		t.Fatal("registered caches missing from snapshot")
	}
}
