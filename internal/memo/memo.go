// Package memo provides content-addressed memoization of pipeline
// intermediates: size-bounded LRU caches keyed by canonical hashes of
// the exact inputs each stage consumes.
//
// The caches hold immutable values — a placement matrix, a routed
// layout, a covariance matrix — that the pipeline treats as read-only
// after construction, so a hit hands out the cached pointer directly.
// Every key is derived through Key, which length- and type-prefixes
// each field before hashing (FNV-1a 128), so two different field
// sequences can never collide by concatenation. Do is the one
// get-or-compute call: concurrent callers of a key share one pending
// computation, so in-flight work is deduplicated by the same entry
// that later serves hits.
//
// Memoization is opt-in per run: stages consult their caches only when
// the context carries the enable mark (Enabled). Library calls default
// to cold runs — identical results, no shared state — while servers,
// sweeps and calibration drivers opt in because their workloads repeat
// stage inputs heavily. Cached and cold runs produce bitwise-identical
// results (the pipeline is deterministic), so the knob trades memory
// for wall time only. See docs/PERFORMANCE.md.
package memo

import (
	"container/list"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// ctxEnable marks a context (sub)tree as memo-enabled.
type ctxEnable struct{}

// WithEnabled returns a context under which pipeline stages consult
// and populate their memo caches.
func WithEnabled(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxEnable{}, true)
}

// Enabled reports whether stages under ctx should use their caches.
func Enabled(ctx context.Context) bool {
	v, _ := ctx.Value(ctxEnable{}).(bool)
	return v
}

// Cache is a named, byte-bounded, concurrency-safe LRU cache with
// hit/miss/eviction accounting. Its Do call shares one pending
// computation among concurrent callers of a key.
type Cache struct {
	name string
	max  int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	index   map[string]*list.Element
	pending map[string]*call
	bytes   int64

	hits, misses, evictions, shared atomic.Int64
	// waiters is the number of Do callers currently blocked on a
	// pending entry, leaders included.
	waiters atomic.Int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// call is one pending Do computation. val and err are written before
// done closes; subs is guarded by Cache.mu.
type call struct {
	done   chan struct{}
	cancel context.CancelFunc
	subs   int
	val    any
	err    error
}

// New returns an empty cache bounded to maxBytes of caller-estimated
// entry sizes (maxBytes <= 0 disables storage entirely: Do computes
// inline). Entries live until the byte bound evicts them. The cache is
// not registered for metrics exposition; call Register for
// process-global caches that /metrics should report.
func New(name string, maxBytes int64) *Cache {
	return &Cache{
		name:    name,
		max:     maxBytes,
		ll:      list.New(),
		index:   map[string]*list.Element{},
		pending: map[string]*call{},
	}
}

// Name returns the cache's registered name.
func (c *Cache) Name() string { return c.name }

// putLocked stores val under key, charging size bytes against the
// bound (sizes < 1 are clamped to 1) and evicting least-recently-used
// entries to fit. A value larger than the whole bound is not stored.
// The caller holds c.mu.
func (c *Cache) putLocked(key string, val any, size int64) {
	if size < 1 {
		size = 1
	}
	if size > c.max {
		return
	}
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.index[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Add(1)
	}
}

// Status reports how Do produced its value.
type Status int

const (
	// Cold: this caller opened the pending entry; its compute ran.
	Cold Status = iota
	// Hit: the value was already stored.
	Hit
	// Shared: this caller joined another caller's pending entry.
	Shared
)

// String returns "cold", "hit" or "shared".
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	}
	return "cold"
}

// Do returns the value stored under key, computing it on a miss. A hit
// is one locked lookup. On a miss the caller opens a pending entry and
// compute runs in its own goroutine on a context detached from the
// caller's cancellation; concurrent callers of the same key join that
// entry instead of computing again. A caller whose ctx ends first
// unsubscribes and gets ctx.Err(); the compute's context is cancelled
// only when its last waiter leaves, so a cancelled leader hands the
// work to the callers still waiting. A successful value is stored
// under the size compute reports; errors are not stored, and a panic
// in compute reaches every waiter as an error carrying the panic value
// and stack. A disabled cache (maxBytes <= 0) runs compute inline with
// no sharing and no storage.
func (c *Cache) Do(ctx context.Context, key string, compute func(context.Context) (any, int64, error)) (any, Status, error) {
	if c == nil || c.max <= 0 {
		v, _, err := compute(ctx)
		return v, Cold, err
	}
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if p, ok := c.pending[key]; ok {
		p.subs++
		c.mu.Unlock()
		c.shared.Add(1)
		return c.wait(ctx, key, p, Shared)
	}
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	p := &call{done: make(chan struct{}), cancel: cancel, subs: 1}
	c.pending[key] = p
	c.mu.Unlock()
	c.misses.Add(1)
	go c.run(cctx, key, p, compute)
	return c.wait(ctx, key, p, Cold)
}

// wait blocks one subscriber of p until the computation finishes or
// the subscriber's own ctx ends. The last subscriber to leave cancels
// the computation and frees the key for a fresh one.
func (c *Cache) wait(ctx context.Context, key string, p *call, st Status) (any, Status, error) {
	c.waiters.Add(1)
	defer c.waiters.Add(-1)
	select {
	case <-p.done:
		return p.val, st, p.err
	case <-ctx.Done():
		c.mu.Lock()
		p.subs--
		if p.subs == 0 {
			if c.pending[key] == p {
				delete(c.pending, key)
			}
			p.cancel()
		}
		c.mu.Unlock()
		return nil, st, ctx.Err()
	}
}

// run executes one pending computation. Completion order matters: the
// value is stored and the pending entry removed under one lock (a
// caller arriving meanwhile finds one or the other, never neither),
// and only then is done closed (a waiter that saw done never races a
// half-finished entry).
func (c *Cache) run(ctx context.Context, key string, p *call, compute func(context.Context) (any, int64, error)) {
	defer p.cancel()
	v, size, err := protect(ctx, compute)
	p.val, p.err = v, err
	c.mu.Lock()
	if err == nil {
		c.putLocked(key, v, size)
	}
	if c.pending[key] == p {
		delete(c.pending, key)
	}
	c.mu.Unlock()
	close(p.done)
}

// protect runs compute, converting a panic into an error: the compute
// goroutine has no caller to unwind into.
func protect(ctx context.Context, compute func(context.Context) (any, int64, error)) (v any, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, size, err = nil, 0, fmt.Errorf("recovered panic: %v\n%s", r, debug.Stack())
		}
	}()
	return compute(ctx)
}

// Purge empties the cache. Counters are preserved (they are lifetime
// totals, not occupancy); pending computations are unaffected.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ll.Init()
	c.index = map[string]*list.Element{}
	c.bytes = 0
	c.mu.Unlock()
}

// removeLocked unlinks el; the caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.size
}

// Stats is a point-in-time view of one cache's accounting.
type Stats struct {
	Name                    string
	Hits, Misses, Evictions int64
	// Shared counts Do calls that joined a pending entry instead of
	// computing; Waiters is the number of Do callers blocked on a
	// pending entry right now.
	Shared, Waiters int64
	Bytes, Entries  int64
	MaxBytes        int64
}

// Stats returns the cache's current accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries := c.bytes, int64(c.ll.Len())
	c.mu.Unlock()
	return Stats{
		Name:      c.name,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Shared:    c.shared.Load(),
		Waiters:   c.waiters.Load(),
		Bytes:     bytes,
		Entries:   entries,
		MaxBytes:  c.max,
	}
}

// registry collects the process-global stage caches for metrics
// exposition (serve's /metrics injects every registered cache's stats
// at scrape time).
var registry struct {
	mu     sync.Mutex
	caches []*Cache
}

// Register adds c to the process-global cache list reported by
// Snapshot. Meant for package-level stage caches; per-instance caches
// (e.g. one server's result cache) report their stats directly.
func Register(c *Cache) *Cache {
	registry.mu.Lock()
	registry.caches = append(registry.caches, c)
	registry.mu.Unlock()
	return c
}

// Snapshot returns the stats of every registered cache, sorted by name.
func Snapshot() []Stats {
	registry.mu.Lock()
	caches := append([]*Cache(nil), registry.caches...)
	registry.mu.Unlock()
	out := make([]Stats, len(caches))
	for i, c := range caches {
		out[i] = c.Stats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PurgeAll empties every registered cache — the explicit global
// invalidation hook (tests, and operators who changed on-disk state a
// cached stage implicitly depends on).
func PurgeAll() {
	registry.mu.Lock()
	caches := append([]*Cache(nil), registry.caches...)
	registry.mu.Unlock()
	for _, c := range caches {
		c.Purge()
	}
}

// Key builds a canonical cache key by hashing a typed, length-prefixed
// encoding of each field (FNV-1a 128). Two keys collide only if their
// full field sequences are identical, so field order, omitted-default
// normalization and float bit patterns are all part of the identity.
type Key struct {
	h   hash.Hash
	buf [9]byte
}

// Field type tags keep adjacent fields from re-associating (e.g. the
// string "ab" followed by "c" hashes differently from "a" then "bc").
const (
	tagStr   = 0x01
	tagInt   = 0x02
	tagFloat = 0x03
	tagBool  = 0x04
)

// NewKey starts a key in the given domain; unrelated caches use
// distinct domains (with a version suffix) so identical field
// sequences can never cross cache kinds.
func NewKey(domain string) *Key {
	k := &Key{h: fnv.New128a()}
	return k.Str(domain)
}

func (k *Key) tagged(tag byte, payload []byte) *Key {
	k.buf[0] = tag
	binary.LittleEndian.PutUint64(k.buf[1:], uint64(len(payload)))
	k.h.Write(k.buf[:])
	k.h.Write(payload)
	return k
}

// Str appends a string field.
func (k *Key) Str(s string) *Key { return k.tagged(tagStr, []byte(s)) }

// I64 appends an integer field.
func (k *Key) I64(v int64) *Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return k.tagged(tagInt, b[:])
}

// Int appends an int field.
func (k *Key) Int(v int) *Key { return k.I64(int64(v)) }

// Ints appends an int-slice field (length included).
func (k *Key) Ints(vs []int) *Key {
	k.I64(int64(len(vs)))
	for _, v := range vs {
		k.I64(int64(v))
	}
	return k
}

// F64 appends a float field by exact bit pattern.
func (k *Key) F64(v float64) *Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return k.tagged(tagFloat, b[:])
}

// Bool appends a boolean field.
func (k *Key) Bool(v bool) *Key {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	return k.tagged(tagBool, b)
}

// Sum finalizes the key as a hex digest. The Key must not be used
// after Sum.
func (k *Key) Sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}
