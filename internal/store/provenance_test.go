package store

import (
	"encoding/json"
	"strings"
	"testing"
)

// appendRuns appends n provenance records describing distinct runs and
// returns them as appended.
func appendRuns(t *testing.T, s *Store, n int) []ProvenanceRecord {
	t.Helper()
	out := make([]ProvenanceRecord, 0, n)
	for i := 0; i < n; i++ {
		data := []byte(strings.Repeat("r", i+1))
		hash, err := s.put(data)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.appendProvenance(ProvenanceRecord{
			Key:        "run-" + string(rune('a'+i)),
			Artifact:   hash,
			ConfigJSON: `{"bits":8}`,
			Seed:       int64(i),
			GoVersion:  "go1.24",
			CodeHash:   "deadbeef",
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func TestProvenanceChain(t *testing.T) {
	b, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	recs := appendRuns(t, s, 3)
	if recs[0].Prev != "" || recs[1].Prev != recs[0].Hash || recs[2].Prev != recs[1].Hash {
		t.Fatalf("chain links wrong: %+v", recs)
	}
	n, err := s.VerifyProvenance()
	if err != nil || n != 3 {
		t.Fatalf("VerifyProvenance = %d, %v, want 3 clean records", n, err)
	}

	// A reopened store continues the chain from the persisted head
	// rather than restarting it.
	s2, err := fast(New(b))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.appendProvenance(ProvenanceRecord{Key: "run-d", Artifact: Hash([]byte("d"))})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 3 || rec.Prev != recs[2].Hash {
		t.Fatalf("reopened append: seq %d prev %s, want 3 linking %s", rec.Seq, rec.Prev, recs[2].Hash)
	}
	if n, err := s2.VerifyProvenance(); err != nil || n != 4 {
		t.Fatalf("VerifyProvenance after reopen = %d, %v, want 4", n, err)
	}
}

// TestProvenanceTamper: editing a stored record, unlinking it, or
// deleting one from the middle must all fail verification — the
// tamper-evidence acceptance bar.
func TestProvenanceTamper(t *testing.T) {
	setup := func(t *testing.T) (*Store, *FS) {
		b, err := NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, err := fast(New(b))
		if err != nil {
			t.Fatal(err)
		}
		appendRuns(t, s, 3)
		return s, b
	}

	t.Run("edited_field", func(t *testing.T) {
		s, b := setup(t)
		// Rewrite record 1 claiming a different seed, keeping its stored
		// hash: the recomputed chain hash exposes the edit.
		data, err := b.Get(provKey(1))
		if err != nil {
			t.Fatal(err)
		}
		var r ProvenanceRecord
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		r.Seed = 999
		edited, _ := json.Marshal(r)
		if err := b.Put(provKey(1), edited); err != nil {
			t.Fatal(err)
		}
		n, err := s.VerifyProvenance()
		if err == nil || !strings.Contains(err.Error(), "tampered") {
			t.Fatalf("VerifyProvenance = %d, %v, want tamper error", n, err)
		}
		if n != 1 {
			t.Errorf("verified prefix = %d, want 1 (records before the edit)", n)
		}
	})

	t.Run("rehashed_record", func(t *testing.T) {
		s, b := setup(t)
		// A smarter attacker recomputes the edited record's own hash —
		// but the next record's Prev no longer matches.
		data, err := b.Get(provKey(1))
		if err != nil {
			t.Fatal(err)
		}
		var r ProvenanceRecord
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		r.Seed = 999
		r.Hash = r.chainHash()
		edited, _ := json.Marshal(r)
		if err := b.Put(provKey(1), edited); err != nil {
			t.Fatal(err)
		}
		if _, err := s.VerifyProvenance(); err == nil || !strings.Contains(err.Error(), "prev link") {
			t.Fatalf("VerifyProvenance err = %v, want prev-link mismatch", err)
		}
	})

	t.Run("deleted_middle", func(t *testing.T) {
		s, b := setup(t)
		if err := b.Delete(provKey(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.VerifyProvenance(); err == nil || !strings.Contains(err.Error(), "seq") {
			t.Fatalf("VerifyProvenance err = %v, want sequence-gap error", err)
		}
	})

	t.Run("clean_chain_verifies", func(t *testing.T) {
		s, _ := setup(t)
		if n, err := s.VerifyProvenance(); err != nil || n != 3 {
			t.Fatalf("untampered chain: VerifyProvenance = %d, %v, want 3 clean", n, err)
		}
	})
}
