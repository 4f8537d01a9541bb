// Package store is the durable artifact layer of the ccdac flow: a
// content-addressed blob store engineered for crash-safety and hostile
// disks (docs/ROBUSTNESS.md, "Durable artifact store").
//
// Layering:
//
//   - Backend is the blob transport — a flat key→bytes namespace with
//     atomic Put, S3-shaped (Put/Get/Delete/List) so a remote object
//     store can slot in behind the same Store. The filesystem
//     implementation (FS) writes temp + fsync + rename.
//   - Store adds content addressing (blobs are named by their SHA-256,
//     so every read is verifiable), read-time integrity verification
//     with quarantine (a corrupt blob is moved aside and reported, never
//     served), a bounded retry ladder with exponential backoff and
//     jitter for transient backend errors, and graceful degradation: if
//     the backend stays down (disk full, directory gone), the store
//     flips to memory-only operation instead of failing its callers,
//     and heals back when the backend recovers.
//   - An index maps canonical request keys (internal/memo keying) to
//     artifact hashes, and a hash-chained provenance log makes runs
//     tamper-evident (provenance.go). Save (blob → index → provenance)
//     and Load (index → verified blob) are the one write and read path
//     for indexed artifacts.
//
// Every IO edge carries an internal/fault checkpoint (store.write,
// store.fsync, store.rename, store.read, store.verify), and Stats
// exposes the ccdac_store_* metric set.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccdac/internal/fault"
)

// ErrCorrupt reports that a blob failed content-hash verification and
// was quarantined instead of served.
var ErrCorrupt = errors.New("store: artifact failed integrity verification (quarantined)")

// ErrNotFound reports a hash or index key with no stored artifact.
var ErrNotFound = errors.New("store: artifact not found")

// retries is the number of backend attempts per operation beyond the
// first; each backs off exponentially from Store.retryBase.
const retries = 2

// Store is a content-addressed artifact store over a Backend. All
// methods are safe for concurrent use.
type Store struct {
	b Backend // nil for a permanently-degraded (memory-only) store
	// retryBase is the first retry's backoff (10ms), doubled per
	// attempt with ±50% jitter; memMax bounds the degraded-mode memory
	// overlay (64 MiB), beyond which the oldest overlay blobs are
	// dropped. Tests shorten and shrink them.
	retryBase time.Duration
	memMax    int64

	mu       sync.Mutex
	mem      map[string][]byte // hash → blob: degraded overlay + unflushed writes
	memOrder []string          // insertion order, for bounded eviction
	memBytes int64
	idx      map[string]string   // request key → artifact hash (authoritative)
	idxDirty map[string]struct{} // index keys not yet persisted

	degraded    atomic.Bool
	degradedErr error // guarded by mu; first error that forced degradation

	writes, reads, hits       atomic.Int64
	retries, corruptions      atomic.Int64
	degradedOps, memEvictions atomic.Int64

	prov provenance
}

// Backend is the pluggable blob layer: a flat namespace of keys to
// immutable byte blobs. Put must be atomic (a reader, or a process
// restarted after a crash, never observes a partial blob); Get reports
// fs.ErrNotExist for missing keys; Delete is idempotent; List
// enumerates fully-written keys under a prefix.
type Backend interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	List(prefix string) ([]string, error)
}

// Open opens (creating if needed) a filesystem-backed store at dir.
func Open(dir string) (*Store, error) {
	b, err := NewFS(dir)
	if err != nil {
		return nil, err
	}
	return New(b)
}

// New builds a store over b, replaying the persisted index and
// provenance head, then reclaiming every blob the index does not point
// to (reclaimBlobs). Corrupt index entries (torn by a crash in a
// non-atomic backend, or tampered) are skipped and deleted rather than
// trusted.
func New(b Backend) (*Store, error) {
	s := newStore(b)
	complete, err := s.loadIndex()
	if err != nil {
		return nil, err
	}
	if err := s.prov.load(b); err != nil {
		return nil, err
	}
	if complete {
		s.reclaimBlobs()
	}
	return s, nil
}

func newStore(b Backend) *Store {
	return &Store{
		b:         b,
		retryBase: 10 * time.Millisecond,
		memMax:    64 << 20,
		mem:       map[string][]byte{},
		idx:       map[string]string{},
		idxDirty:  map[string]struct{}{},
	}
}

// Degrade returns a permanently memory-only store recording why the
// real backend was unavailable — the "backend is down, keep serving"
// construction. Every operation works against process memory; Degraded
// reports true for the store's lifetime.
func Degrade(err error) *Store {
	s := newStore(nil)
	s.degradedErr = err
	s.degraded.Store(true)
	return s
}

// Hash returns the content address of data: its SHA-256, hex-encoded.
func Hash(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// blobKey maps a hash to its backend key, sharded by the first byte to
// keep directory fanout flat.
func blobKey(hash string) string {
	return "blobs/" + hash[:2] + "/" + hash
}

// quarantineKey is where a corrupt blob is moved on failed verification.
func quarantineKey(hash string) string { return "quarantine/" + hash }

const indexPrefix = "index/"

// indexKey maps a request key to its backend object. Request keys are
// memo.Key digests (hex) already, but hashing again keeps arbitrary
// caller keys filesystem-safe.
func indexKey(key string) string { return indexPrefix + Hash([]byte(key)) }

// indexEntry is the persisted form of one index mapping.
type indexEntry struct {
	Key      string `json:"key"`
	Artifact string `json:"artifact"`
}

// retry runs op up to 1+Retries times with exponential backoff and
// jitter. Not-found errors are never retried: absence is a result, not
// a transient fault.
func (s *Store) retry(op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if attempt >= retries {
			return err
		}
		s.retries.Add(1)
		d := s.retryBase << attempt
		// ±50% jitter decorrelates retry storms across goroutines.
		d = d/2 + time.Duration(rand.Int63n(int64(d)))
		time.Sleep(d)
	}
}

// Save makes one artifact durable under an index key: it stores blob
// (put), maps key to the blob's hash (setIndex) and, when prov is
// non-nil, appends a provenance record built from prov's ConfigJSON and
// Seed, stamped with the key, the artifact hash, the Go version and the
// code revision. Backend failure degrades the store rather than failing
// the save; the returned error is reserved for programmer errors.
func (s *Store) Save(key string, blob []byte, prov *ProvenanceRecord) error {
	hash, err := s.put(blob)
	if err != nil {
		return err
	}
	if err := s.setIndex(key, hash); err != nil {
		return err
	}
	if prov == nil {
		return nil
	}
	rec := *prov
	rec.Key, rec.Artifact, rec.GoVersion, rec.CodeHash = key, hash, runtime.Version(), codeHash()
	_, err = s.appendProvenance(rec)
	return err
}

// Load returns the verified artifact indexed under key: ErrNotFound
// when the key is not indexed, otherwise whatever Get reports for its
// hash (a corrupt blob is quarantined and reads as ErrCorrupt).
func (s *Store) Load(key string) ([]byte, error) {
	hash, ok := s.LookupIndex(key)
	if !ok {
		return nil, fmt.Errorf("%w: index key %q", ErrNotFound, key)
	}
	return s.Get(hash)
}

// codeHash identifies the running code revision from build info (VCS
// stamp when built from a checkout, module version otherwise).
var codeHash = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "unknown"
})

// put stores data and returns its content hash. Backend failure is
// absorbed: after the retry ladder is exhausted the blob is kept in the
// bounded memory overlay, the store flips degraded, and the caller
// still gets the hash — requests keep working while the disk is down.
// The returned error is reserved for programmer errors (nil is the
// norm even when degraded; check Degraded or Stats for health).
func (s *Store) put(data []byte) (string, error) {
	hash := Hash(data)
	s.writes.Add(1)
	if s.b == nil || s.degraded.Load() {
		if s.b != nil && s.tryRecover() {
			return s.putBackend(hash, data)
		}
		s.degradedOps.Add(1)
		s.memPut(hash, data)
		return hash, nil
	}
	return s.putBackend(hash, data)
}

// putBackend writes one blob through the retry ladder, degrading on
// persistent failure.
func (s *Store) putBackend(hash string, data []byte) (string, error) {
	err := s.retry(func() error { return s.b.Put(blobKey(hash), data) })
	if err != nil {
		s.enterDegraded(err)
		s.degradedOps.Add(1)
		s.memPut(hash, data)
		return hash, nil
	}
	return hash, nil
}

// Get returns the artifact stored under hash, verifying its content
// address before serving it. A blob that fails verification is moved
// to quarantine/ and reported as ErrCorrupt — a corrupt artifact is
// never returned to a caller.
func (s *Store) Get(hash string) ([]byte, error) {
	s.reads.Add(1)
	s.mu.Lock()
	data, ok := s.mem[hash]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return data, nil
	}
	if s.b == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	var blob []byte
	err := s.retry(func() error {
		var gerr error
		blob, gerr = s.b.Get(blobKey(hash))
		return gerr
	})
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
		}
		return nil, err
	}
	if err := fault.Check(fault.StageStoreVerify); err != nil {
		return nil, fmt.Errorf("store: verifying %s: %w", hash, err)
	}
	if got := Hash(blob); got != hash {
		s.quarantine(hash, blob)
		return nil, fmt.Errorf("%w: %s (content hashed to %s)", ErrCorrupt, hash, got)
	}
	s.hits.Add(1)
	return blob, nil
}

// quarantine moves a corrupt blob out of the serving namespace so it
// can be inspected but never returned, and counts the corruption.
// Best-effort: if the quarantine write itself fails the blob is still
// deleted from the serving path.
func (s *Store) quarantine(hash string, blob []byte) {
	s.corruptions.Add(1)
	_ = s.b.Put(quarantineKey(hash), blob)
	_ = s.b.Delete(blobKey(hash))
}

// Quarantined lists the hashes currently held in quarantine.
func (s *Store) Quarantined() ([]string, error) {
	if s.b == nil {
		return nil, nil
	}
	keys, err := s.b.List("quarantine/")
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k[len("quarantine/"):])
	}
	return out, nil
}

// setIndex durably maps a canonical request key to an artifact hash.
// The in-memory index is always updated (lookups work even while the
// backend is down); persistence follows the same degrade-don't-fail
// contract as put.
func (s *Store) setIndex(key, hash string) error {
	s.mu.Lock()
	s.idx[key] = hash
	s.idxDirty[key] = struct{}{}
	s.mu.Unlock()
	if s.b == nil || s.degraded.Load() {
		if s.b == nil || !s.tryRecover() {
			s.degradedOps.Add(1)
			return nil
		}
	}
	data, err := json.Marshal(indexEntry{Key: key, Artifact: hash})
	if err != nil {
		return err
	}
	if err := s.retry(func() error { return s.b.Put(indexKey(key), data) }); err != nil {
		s.enterDegraded(err)
		s.degradedOps.Add(1)
		return nil
	}
	s.mu.Lock()
	delete(s.idxDirty, key)
	s.mu.Unlock()
	return nil
}

// LookupIndex resolves a canonical request key to its artifact hash.
func (s *Store) LookupIndex(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.idx[key]
	return h, ok
}

// IndexLen returns the number of indexed request keys.
func (s *Store) IndexLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// IndexKeys returns the indexed keys that begin with prefix, sorted,
// so a caller can enumerate its own namespace of the index New
// replayed: the serve job tier recovers its job/<id> records this way.
func (s *Store) IndexKeys(prefix string) []string {
	s.mu.Lock()
	var keys []string
	for k := range s.idx {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// loadIndex replays the persisted index into memory, dropping entries
// that do not parse (torn or tampered) instead of trusting them. It
// reports whether it read every entry: one it could not read may still
// point to a blob.
func (s *Store) loadIndex() (complete bool, err error) {
	keys, err := s.b.List(indexPrefix)
	if err != nil {
		return false, err
	}
	complete = true
	for _, k := range keys {
		data, err := s.b.Get(k)
		if err != nil {
			complete = false
			continue
		}
		var e indexEntry
		if json.Unmarshal(data, &e) != nil || e.Key == "" || e.Artifact == "" {
			_ = s.b.Delete(k) // unreadable: quarantine-by-removal
			continue
		}
		s.idx[e.Key] = e.Artifact
	}
	return complete, nil
}

// reclaimBlobs deletes every blob that no index entry points to: job
// records and checkpoints superseded under their key, and blobs a
// crash left between the blob put and the index write. New runs it
// once, before any Save, and only after a replay that read every
// index entry. While the store runs, a superseded blob stays until the
// next open: reclaiming it at once would need reference counts across
// concurrent Saves. Best-effort: a failed list or delete costs disk
// space, never correctness.
func (s *Store) reclaimBlobs() {
	keys, err := s.b.List("blobs/")
	if err != nil {
		return
	}
	live := make(map[string]bool, len(s.idx))
	for _, h := range s.idx {
		live[h] = true
	}
	for _, k := range keys {
		if !live[k[strings.LastIndexByte(k, '/')+1:]] {
			_ = s.b.Delete(k)
		}
	}
}

// enterDegraded flips the store to memory-only mode, remembering the
// first cause.
func (s *Store) enterDegraded(err error) {
	s.mu.Lock()
	if s.degradedErr == nil {
		s.degradedErr = err
	}
	s.mu.Unlock()
	s.degraded.Store(true)
}

// tryRecover probes a degraded backend with one cheap write; on
// success it flushes the memory overlay and dirty index entries back
// to the backend and clears the degradation. Returns whether the store
// is healthy again.
func (s *Store) tryRecover() bool {
	if s.b == nil {
		return false
	}
	if err := s.b.Put("health/probe", []byte("ok")); err != nil {
		return false
	}
	s.mu.Lock()
	mem := make(map[string][]byte, len(s.mem))
	for h, b := range s.mem {
		mem[h] = b
	}
	dirty := make(map[string]string, len(s.idxDirty))
	for k := range s.idxDirty {
		dirty[k] = s.idx[k]
	}
	s.mu.Unlock()
	for h, b := range mem {
		if s.b.Put(blobKey(h), b) != nil {
			return false
		}
	}
	for k, h := range dirty {
		data, err := json.Marshal(indexEntry{Key: k, Artifact: h})
		if err != nil || s.b.Put(indexKey(k), data) != nil {
			return false
		}
	}
	s.mu.Lock()
	for h, b := range mem {
		if _, ok := s.mem[h]; ok {
			delete(s.mem, h)
			s.memBytes -= int64(len(b))
		}
	}
	s.memOrder = s.memOrder[:0]
	for h := range s.mem {
		s.memOrder = append(s.memOrder, h)
	}
	for k := range dirty {
		delete(s.idxDirty, k)
	}
	s.degradedErr = nil
	s.mu.Unlock()
	s.degraded.Store(false)
	return true
}

// memPut stores a blob in the bounded degraded-mode overlay, evicting
// oldest-first beyond the byte bound.
func (s *Store) memPut(hash string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mem[hash]; ok {
		return
	}
	s.mem[hash] = data
	s.memOrder = append(s.memOrder, hash)
	s.memBytes += int64(len(data))
	for s.memBytes > s.memMax && len(s.memOrder) > 0 {
		old := s.memOrder[0]
		s.memOrder = s.memOrder[1:]
		if b, ok := s.mem[old]; ok {
			s.memBytes -= int64(len(b))
			delete(s.mem, old)
			s.memEvictions.Add(1)
		}
	}
}

// Degraded reports whether the store is currently in memory-only mode,
// with the error that forced it there.
func (s *Store) Degraded() (bool, error) {
	if !s.degraded.Load() {
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return true, s.degradedErr
}

// Stats is a point-in-time view of store health, the source of the
// ccdac_store_* metric set (docs/OBSERVABILITY.md).
type Stats struct {
	Writes                 int64 // artifacts stored (put calls)
	Reads                  int64 // Get calls
	Hits                   int64 // Gets that returned a verified artifact
	Retries                int64 // backend retries taken by the backoff ladder
	CorruptionsQuarantined int64 // blobs that failed verification and were quarantined
	DegradedOps            int64 // operations absorbed by memory-only mode
	MemEvictions           int64 // overlay blobs dropped by the memory bound
	MemBytes               int64 // bytes currently held in the overlay
	IndexEntries           int64 // request keys resolvable via the index
	ProvenanceRecords      int64 // length of the provenance chain
	Degraded               bool  // memory-only right now
}

// Stats returns the store's current accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	memBytes, idxLen := s.memBytes, int64(len(s.idx))
	s.mu.Unlock()
	return Stats{
		Writes:                 s.writes.Load(),
		Reads:                  s.reads.Load(),
		Hits:                   s.hits.Load(),
		Retries:                s.retries.Load(),
		CorruptionsQuarantined: s.corruptions.Load(),
		DegradedOps:            s.degradedOps.Load(),
		MemEvictions:           s.memEvictions.Load(),
		MemBytes:               memBytes,
		IndexEntries:           idxLen,
		ProvenanceRecords:      s.prov.len(),
		Degraded:               s.degraded.Load(),
	}
}
