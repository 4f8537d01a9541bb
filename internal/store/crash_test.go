package store

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCrashRecovery is the crash-safety acceptance bar: a child
// process writing artifacts at full speed is killed with SIGKILL
// mid-load, and the reopened store must contain only complete,
// verifiable state — every listed blob verifies and is indexed, every
// index entry resolves to a verified blob, the provenance chain is a
// clean dense prefix, nothing is quarantined, and no temp file is
// visible.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("STORE_CRASH_DIR") != "" {
		crashChild(os.Getenv("STORE_CRASH_DIR"))
		return // unreachable: the child runs until killed
	}
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(), "STORE_CRASH_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the child is demonstrably mid-load (it marks the first
	// completed write), then let it run a little longer and kill it hard.
	ready := filepath.Join(base, "ready")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ready); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("crash child never started writing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	// Recovery: reopen and audit everything the crashed process left.
	s, err := fast(Open(dir))
	if err != nil {
		t.Fatalf("reopening crashed store: %v", err)
	}
	b, _ := NewFS(dir)
	blobs, err := b.List("blobs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) == 0 {
		t.Fatal("crashed store holds no blobs; the child never wrote anything")
	}
	indexed := map[string]bool{}
	for _, hash := range indexSnapshot(s) {
		indexed[hash] = true
	}
	for _, k := range blobs {
		hash := k[strings.LastIndex(k, "/")+1:]
		if _, err := s.Get(hash); err != nil {
			t.Errorf("blob %s does not verify after crash: %v", hash, err)
		}
		if !indexed[hash] {
			t.Errorf("blob %s outlived the reopen with no index entry pointing to it", hash)
		}
	}
	for key, hash := range indexSnapshot(s) {
		if _, err := s.Get(hash); err != nil {
			t.Errorf("index entry %q -> %s does not resolve after crash: %v", key, hash, err)
		}
	}
	if n, err := s.VerifyProvenance(); err != nil {
		t.Errorf("provenance chain broken after crash (%d clean): %v", n, err)
	}
	if q, _ := s.Quarantined(); len(q) != 0 {
		t.Errorf("quarantine holds %v after a pure crash, want empty", q)
	}
	noTempFiles(t, dir)
	t.Logf("recovered %d blobs, %d index entries, %d provenance records",
		len(blobs), s.IndexLen(), s.Stats().ProvenanceRecords)
}

// indexSnapshot copies the reopened store's index for auditing.
func indexSnapshot(s *Store) map[string]string {
	out := map[string]string{}
	s.mu.Lock()
	for k, v := range s.idx {
		out[k] = v
	}
	s.mu.Unlock()
	return out
}

// crashChild writes artifacts, index entries and provenance records as
// fast as it can until the parent kills the process.
func crashChild(dir string) {
	s, err := Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		data := []byte(strings.Repeat(fmt.Sprintf("artifact %d ", i), 50))
		hash, err := s.put(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash child put:", err)
			os.Exit(1)
		}
		if err := s.setIndex(fmt.Sprintf("crash-key-%d", i), hash); err != nil {
			fmt.Fprintln(os.Stderr, "crash child index:", err)
			os.Exit(1)
		}
		if _, err := s.appendProvenance(ProvenanceRecord{
			Key: fmt.Sprintf("crash-key-%d", i), Artifact: hash,
			ConfigJSON: `{"bits":8}`, GoVersion: "go-test", CodeHash: "crash",
		}); err != nil {
			fmt.Fprintln(os.Stderr, "crash child provenance:", err)
			os.Exit(1)
		}
		if i == 0 {
			// Signal the parent that writes are flowing.
			os.WriteFile(filepath.Join(dir, "..", "ready"), []byte("ok"), 0o644)
		}
	}
}

// TestOpenOnHostileRoot: Open refuses an unusable root with an error
// (callers then run Degrade), rather than limping along half-open.
func TestOpenOnHostileRoot(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("Open over a regular file succeeded, want error")
	}
	var pe *os.PathError
	if _, err := Open(filepath.Join(file, "sub")); err == nil || !errors.As(err, &pe) {
		t.Fatalf("Open under a regular file: err = %v, want a path error", err)
	}
}
