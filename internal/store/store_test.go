package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdac/internal/fault"
)

// fast keeps the retry ladder out of test wall time.
func fast(s *Store, err error) (*Store, error) {
	if s != nil {
		s.retryBase = time.Microsecond
	}
	return s, err
}

func openTest(t *testing.T) (*Store, *FS) {
	t.Helper()
	b, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// noTempFiles fails the test if any in-progress temp file is visible
// under dir — the invariant every crash/fault scenario must preserve.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.svg")
	if err := AtomicWriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("read back %q, want %q", got, "first")
	}
	// Overwrite is atomic too: the new content fully replaces the old.
	if err := AtomicWriteFile(path, []byte("second"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("read back %q, want %q", got, "second")
	}
	noTempFiles(t, dir)
}

// TestAtomicWriteFileFaults: a failure injected at any IO edge — the
// data write, the fsync, or the rename — must leave the destination
// untouched (old content intact) and no temp file behind.
func TestAtomicWriteFileFaults(t *testing.T) {
	for _, stage := range []string{fault.StageStoreWrite, fault.StageStoreFsync, fault.StageStoreRename} {
		t.Run(stage, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			path := filepath.Join(dir, "artifact.gds")
			if err := AtomicWriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			fault.Enable(stage, 0, fmt.Errorf("injected %s failure", stage))
			err := AtomicWriteFile(path, []byte("new"), 0o644)
			if err == nil || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("fault at %s: err = %v, want injected failure", stage, err)
			}
			if !fault.Fired(stage) {
				t.Errorf("fault at %s did not fire", stage)
			}
			if got, _ := os.ReadFile(path); string(got) != "old" {
				t.Errorf("after failed write, content = %q, want old content intact", got)
			}
			noTempFiles(t, dir)
		})
	}
}

func TestFSBackend(t *testing.T) {
	b, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("blobs/ab/abc", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("blobs/ab/abc")
	if err != nil || string(got) != "data" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := b.Get("blobs/ab/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing key: err = %v, want fs.ErrNotExist", err)
	}
	// Traversal and absolute keys are rejected outright.
	for _, bad := range []string{"", "../escape", "a/../../b", "/etc/passwd"} {
		if err := b.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a hostile key", bad)
		}
	}
	// Delete is idempotent.
	if err := b.Delete("blobs/ab/abc"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("blobs/ab/abc"); err != nil {
		t.Errorf("second Delete: %v, want nil", err)
	}
	// List skips in-progress temp files and sorts.
	b.Put("index/2", []byte("x"))
	b.Put("index/1", []byte("x"))
	if err := os.WriteFile(filepath.Join(b.Root(), "index", ".3.tmp123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := b.List("index/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "index/1" || keys[1] != "index/2" {
		t.Errorf("List = %v, want [index/1 index/2] (sorted, temp invisible)", keys)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := openTest(t)
	data := []byte("routed layout artifact")
	hash, err := s.put(data)
	if err != nil {
		t.Fatal(err)
	}
	if hash != Hash(data) {
		t.Fatalf("Put hash %s, want content hash %s", hash, Hash(data))
	}
	got, err := s.Get(hash)
	if err != nil || string(got) != string(data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get(Hash([]byte("never stored"))); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing artifact: err = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Degraded {
		t.Errorf("stats = %+v, want 1 write, 1 hit, healthy", st)
	}
}

// TestCorruptBlobQuarantine is the integrity acceptance bar: a blob
// whose bytes no longer match its content address is quarantined and
// reported, never served — and stays unavailable afterward.
func TestCorruptBlobQuarantine(t *testing.T) {
	s, b := openTest(t)
	hash, err := s.put([]byte("good artifact"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip the stored bytes behind the store's back.
	path := filepath.Join(b.Root(), filepath.FromSlash(blobKey(hash)))
	if err := os.WriteFile(path, []byte("tampered artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt blob: err = %v, want ErrCorrupt", err)
	}
	q, err := s.Quarantined()
	if err != nil || len(q) != 1 || q[0] != hash {
		t.Fatalf("Quarantined = %v, %v, want [%s]", q, err, hash)
	}
	// The corrupt blob left the serving namespace entirely.
	if _, err := s.Get(hash); !errors.Is(err, ErrNotFound) {
		t.Errorf("after quarantine: err = %v, want ErrNotFound", err)
	}
	if got := s.Stats().CorruptionsQuarantined; got != 1 {
		t.Errorf("CorruptionsQuarantined = %d, want 1", got)
	}
}

// TestVerifyFaultInjection: a failure injected at the verification
// checkpoint surfaces as an error (the blob is not served unverified),
// and a transient read fault is absorbed by the retry ladder.
func TestVerifyFaultInjection(t *testing.T) {
	defer fault.Reset()
	s, _ := openTest(t)
	hash, err := s.put([]byte("verified artifact"))
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(fault.StageStoreVerify, 0, errors.New("injected verify failure"))
	if _, err := s.Get(hash); err == nil || !strings.Contains(err.Error(), "injected verify") {
		t.Fatalf("verify fault: err = %v, want injected failure", err)
	}
	fault.Reset()

	// A single transient read fault: the first attempt fails, the retry
	// succeeds, and the caller never sees it.
	fault.Enable(fault.StageStoreRead, 0, errors.New("transient read failure"))
	got, err := s.Get(hash)
	if err != nil || string(got) != "verified artifact" {
		t.Fatalf("after transient read fault: Get = %q, %v, want success via retry", got, err)
	}
	if s.Stats().Retries == 0 {
		t.Error("retry ladder recorded no retries for the transient read fault")
	}
}

// flaky fails the first n calls of each operation, then delegates —
// the transient-backend model for the retry ladder.
type flaky struct {
	inner Backend
	mu    sync.Mutex
	fails int
}

func (f *flaky) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fails > 0 {
		f.fails--
		return errors.New("flaky backend: transient failure")
	}
	return nil
}

func (f *flaky) Put(key string, data []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Put(key, data)
}

func (f *flaky) Get(key string) ([]byte, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.inner.Get(key)
}
func (f *flaky) Delete(key string) error         { return f.inner.Delete(key) }
func (f *flaky) List(p string) ([]string, error) { return f.inner.List(p) }

func TestRetryLadder(t *testing.T) {
	inner, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fb := &flaky{inner: inner, fails: 2}
	s, err := fast(New(fb))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.put([]byte("persisted on third attempt"))
	if err != nil {
		t.Fatal(err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("store degraded although retries should have absorbed the transient failures")
	}
	if got := s.Stats().Retries; got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	// The blob really reached the backend, not just memory.
	if _, err := inner.Get(blobKey(hash)); err != nil {
		t.Errorf("blob missing from backend after retried Put: %v", err)
	}
}

// down is a backend whose writes fail until healed — the disk-full /
// directory-gone model for degraded-mode tests.
type down struct {
	inner Backend
	mu    sync.Mutex
	ok    bool
}

func (d *down) heal() { d.mu.Lock(); d.ok = true; d.mu.Unlock() }
func (d *down) up() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ok
}

func (d *down) Put(key string, data []byte) error {
	if !d.up() {
		return errors.New("backend down: no space left on device")
	}
	return d.inner.Put(key, data)
}

func (d *down) Get(key string) ([]byte, error) {
	if !d.up() {
		return nil, errors.New("backend down: no space left on device")
	}
	return d.inner.Get(key)
}
func (d *down) Delete(key string) error         { return d.inner.Delete(key) }
func (d *down) List(p string) ([]string, error) { return d.inner.List(p) }

// TestDegradedModeAndRecovery is the graceful-degradation acceptance
// bar: with the backend down, Put keeps returning hashes (served from
// the memory overlay) and Degraded reports the cause; when the backend
// heals, the overlay and dirty index flush back and the store recovers.
func TestDegradedModeAndRecovery(t *testing.T) {
	inner, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := &down{inner: inner}
	s, err := fast(New(db))
	if err != nil {
		t.Fatal(err)
	}

	// Writes while down: absorbed, not failed.
	hash, err := s.put([]byte("computed while the disk was full"))
	if err != nil {
		t.Fatalf("Put with backend down: %v, want nil (degrade, don't fail)", err)
	}
	if err := s.setIndex("req-key", hash); err != nil {
		t.Fatalf("setIndex with backend down: %v", err)
	}
	deg, cause := s.Degraded()
	if !deg || cause == nil || !strings.Contains(cause.Error(), "no space") {
		t.Fatalf("Degraded = %v, %v, want true with the backend's error", deg, cause)
	}
	// The overlay still serves the blob and the index still resolves.
	if got, err := s.Get(hash); err != nil || !strings.Contains(string(got), "disk was full") {
		t.Fatalf("degraded Get = %q, %v", got, err)
	}
	if h, ok := s.LookupIndex("req-key"); !ok || h != hash {
		t.Fatalf("degraded LookupIndex = %q, %v", h, ok)
	}
	if s.Stats().DegradedOps == 0 {
		t.Error("DegradedOps = 0, want > 0 while the backend is down")
	}

	// Heal the backend: the next write probes, recovers, and flushes.
	db.heal()
	hash2, err := s.put([]byte("written after recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("store still degraded after the backend healed")
	}
	// Both the overlay-held blob and the new one are durable now.
	for _, h := range []string{hash, hash2} {
		if _, err := inner.Get(blobKey(h)); err != nil {
			t.Errorf("blob %s missing from healed backend: %v", h, err)
		}
	}
	// The dirty index entry flushed too: a fresh store resolves it.
	s2, err := fast(New(inner))
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := s2.LookupIndex("req-key"); !ok || h != hash {
		t.Errorf("reopened LookupIndex = %q, %v, want flushed entry %s", h, ok, hash)
	}
}

func TestDegradeConstructor(t *testing.T) {
	cause := errors.New("store root unusable")
	s := Degrade(cause)
	if deg, err := s.Degraded(); !deg || err != cause {
		t.Fatalf("Degraded = %v, %v, want true with the constructor's cause", deg, err)
	}
	hash, err := s.put([]byte("memory only"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(hash); err != nil || string(got) != "memory only" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.setIndex("k", hash); err != nil {
		t.Fatal(err)
	}
	if _, err := s.appendProvenance(ProvenanceRecord{Key: "k", Artifact: hash}); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().ProvenanceRecords; n != 1 {
		t.Errorf("ProvenanceRecords = %d, want 1 (linked in memory)", n)
	}
}

// TestMemOverlayBound: the degraded overlay is bounded; oldest blobs
// are dropped beyond its byte bound rather than growing without limit.
func TestMemOverlayBound(t *testing.T) {
	s := Degrade(errors.New("down"))
	s.memMax = 64
	var hashes []string
	for i := 0; i < 8; i++ {
		h, err := s.put([]byte(strings.Repeat(fmt.Sprintf("%d", i), 16)))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	st := s.Stats()
	if st.MemBytes > 64 {
		t.Errorf("MemBytes = %d, want <= 64 (bounded overlay)", st.MemBytes)
	}
	if st.MemEvictions == 0 {
		t.Error("MemEvictions = 0, want > 0 after overflowing the overlay")
	}
	// The newest blob survives; the oldest was dropped.
	if _, err := s.Get(hashes[len(hashes)-1]); err != nil {
		t.Errorf("newest overlay blob gone: %v", err)
	}
	if _, err := s.Get(hashes[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest overlay blob: err = %v, want ErrNotFound (evicted)", err)
	}
}

// TestIndexDurability: index entries survive reopen; a torn entry is
// skipped and removed instead of trusted.
func TestIndexDurability(t *testing.T) {
	b, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := s.put([]byte("indexed artifact"))
	if err := s.setIndex("serve/generate/v1/abc", hash); err != nil {
		t.Fatal(err)
	}
	// A torn index entry, as a crash mid-write on a non-atomic backend
	// would leave.
	if err := b.Put("index/deadbeef", []byte(`{"key":"torn`)); err != nil {
		t.Fatal(err)
	}

	s2, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := s2.LookupIndex("serve/generate/v1/abc"); !ok || h != hash {
		t.Fatalf("reopened LookupIndex = %q, %v, want %s", h, ok, hash)
	}
	if n := s2.IndexLen(); n != 1 {
		t.Errorf("IndexLen = %d, want 1 (torn entry dropped)", n)
	}
	if _, err := b.Get("index/deadbeef"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("torn index entry still present: err = %v, want removed", err)
	}
}

// TestReopenReclaimsUnindexedBlobs: a key saved N times leaves N blobs
// while the store runs. Reopening keeps only the one its index entry
// points to, removes a blob a crash left before its index write, and
// Load returns the newest value. A replay that could not read an index
// entry reclaims nothing.
func TestReopenReclaimsUnindexedBlobs(t *testing.T) {
	defer fault.Reset()
	s, b := openTest(t)
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Save("job/a", []byte(fmt.Sprintf("record %d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.put([]byte("no index entry")); err != nil {
		t.Fatal(err)
	}
	blobs := func() int {
		t.Helper()
		keys, err := b.List("blobs/")
		if err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}
	if got := blobs(); got != n+1 {
		t.Fatalf("%d blobs before reopen, want %d", got, n+1)
	}

	fault.Enable(fault.StageStoreRead, 0, errors.New("injected read failure"))
	if _, err := fast(New(b)); err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	if got := blobs(); got != n+1 {
		t.Fatalf("%d blobs after a replay that missed an index entry, want all %d kept", got, n+1)
	}

	s2, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := blobs(); got != 1 {
		t.Errorf("%d blobs after reopen, want 1 (the indexed record)", got)
	}
	data, err := s2.Load("job/a")
	if want := fmt.Sprintf("record %d", n-1); err != nil || string(data) != want {
		t.Errorf("Load after reopen = %q, %v, want %q", data, err, want)
	}
}

// TestIndexKeys: IndexKeys lists the indexed keys under a prefix,
// sorted, from the index a reopened store replayed — a prefix that
// shares leading bytes with another namespace ("job/" vs "jobs/")
// does not reach into it.
func TestIndexKeys(t *testing.T) {
	s, b := openTest(t)
	for _, key := range []string{"job/b", "jobs/manifest", "job/a", "jobck/a", "serve/generate/v3/x"} {
		if err := s.Save(key, []byte(key), nil); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, s2} {
		if got := st.IndexKeys("job/"); !reflect.DeepEqual(got, []string{"job/a", "job/b"}) {
			t.Errorf("IndexKeys(job/) = %q, want [job/a job/b]", got)
		}
		if got := st.IndexKeys(""); len(got) != 5 {
			t.Errorf("IndexKeys(\"\") = %q, want all 5 keys", got)
		}
		if got := st.IndexKeys("nothing/"); len(got) != 0 {
			t.Errorf("IndexKeys(nothing/) = %q, want none", got)
		}
	}
}

// TestStoreConcurrency hammers Put/Get/SetIndex/Append from many
// goroutines — the -race correctness bar for the locking scheme.
func TestStoreConcurrency(t *testing.T) {
	s, _ := openTest(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				data := []byte(fmt.Sprintf("worker %d artifact %d", w, i))
				hash, err := s.put(data)
				if err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if err := s.setIndex(fmt.Sprintf("key-%d-%d", w, i), hash); err != nil {
					t.Errorf("setIndex: %v", err)
					return
				}
				got, err := s.Get(hash)
				if err != nil || string(got) != string(data) {
					t.Errorf("Get = %q, %v", got, err)
					return
				}
				if _, err := s.appendProvenance(ProvenanceRecord{Key: "k", Artifact: hash}); err != nil {
					t.Errorf("appendProvenance: %v", err)
					return
				}
				s.Stats()
			}
		}(w)
	}
	wg.Wait()
	if n, err := s.VerifyProvenance(); err != nil || n != workers*20 {
		t.Errorf("VerifyProvenance = %d, %v, want %d records clean", n, err, workers*20)
	}
}

// TestSaveLoadRoundTrip: Save stores, indexes and chains one artifact,
// stamping its provenance record; Load reads it back by key, in this
// process and after a reopen. A nil provenance appends no record, and
// an unindexed key reads as ErrNotFound.
func TestSaveLoadRoundTrip(t *testing.T) {
	s, b := openTest(t)
	if err := s.Save("result/a", []byte("artifact a"), &ProvenanceRecord{ConfigJSON: `{"bits":8}`, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("manifest", []byte("no provenance"), nil); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"result/a": "artifact a", "manifest": "no provenance"} {
		if got, err := s.Load(key); err != nil || string(got) != want {
			t.Errorf("Load(%s) = %q, %v, want %q", key, got, err, want)
		}
	}
	if _, err := s.Load("never-saved"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Load(unindexed) err = %v, want ErrNotFound", err)
	}
	recs, err := s.Provenance()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Provenance = %d records, %v, want 1", len(recs), err)
	}
	r := recs[0]
	if r.Key != "result/a" || r.Artifact != Hash([]byte("artifact a")) || r.ConfigJSON != `{"bits":8}` ||
		r.Seed != 7 || r.GoVersion != runtime.Version() || r.CodeHash == "" {
		t.Errorf("provenance record = %+v", r)
	}
	if n, err := s.VerifyProvenance(); n != 1 || err != nil {
		t.Errorf("VerifyProvenance = %d, %v", n, err)
	}

	s2, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Load("result/a"); err != nil || string(got) != "artifact a" {
		t.Errorf("reopened Load = %q, %v", got, err)
	}
}

// TestLoadCorruptIsQuarantinedMiss: a saved blob whose bytes no longer
// match its hash is never served by Load: the first read quarantines
// it and reports ErrCorrupt, later reads find nothing.
func TestLoadCorruptIsQuarantinedMiss(t *testing.T) {
	s, b := openTest(t)
	if err := s.Save("k", []byte("good artifact"), nil); err != nil {
		t.Fatal(err)
	}
	hash := Hash([]byte("good artifact"))
	path := filepath.Join(b.Root(), filepath.FromSlash(blobKey(hash)))
	if err := os.WriteFile(path, []byte("tampered artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(corrupt) err = %v, want ErrCorrupt", err)
	}
	if q, err := s.Quarantined(); err != nil || len(q) != 1 || q[0] != hash {
		t.Fatalf("Quarantined = %v, %v, want [%s]", q, err, hash)
	}
	if _, err := s.Load("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Load after quarantine err = %v, want ErrNotFound", err)
	}
}

// TestSaveLoadDegraded: with the backend down, Save still succeeds —
// blob, index entry and provenance link held in memory — and Load
// serves the artifact from the overlay; the same holds for a store
// built degraded.
func TestSaveLoadDegraded(t *testing.T) {
	inner, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	failing, err := fast(New(&down{inner: inner}))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"backend down": failing, "built degraded": Degrade(errors.New("no root"))} {
		if err := s.Save("k", []byte("kept in memory"), &ProvenanceRecord{ConfigJSON: "{}"}); err != nil {
			t.Fatalf("%s: Save = %v, want nil (degrade, don't fail)", name, err)
		}
		if deg, _ := s.Degraded(); !deg {
			t.Errorf("%s: store not degraded", name)
		}
		if got, err := s.Load("k"); err != nil || string(got) != "kept in memory" {
			t.Errorf("%s: Load = %q, %v", name, got, err)
		}
		if n := s.Stats().ProvenanceRecords; n != 1 {
			t.Errorf("%s: ProvenanceRecords = %d, want 1 (linked in memory)", name, n)
		}
	}
}
