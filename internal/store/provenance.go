// Hash-chained provenance: every persisted run appends a record
// binding its configuration, seed, toolchain, code version and
// artifact hash to the hash of the previous record. Verifying the
// chain recomputes every link, so editing any stored record — or
// deleting one from the middle — is detectable, the audit-log
// "tamper-evident" property applied to reproducibility: an artifact
// plus its verified record is a recipe to regenerate it bit for bit.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// ProvenanceRecord describes how one artifact was produced.
type ProvenanceRecord struct {
	// Seq is the record's position in the chain, assigned on append.
	Seq int64 `json:"seq"`
	// Prev is the hex hash of the previous record ("" for the first).
	Prev string `json:"prev"`
	// Key is the canonical request key the artifact is indexed under.
	Key string `json:"key"`
	// Artifact is the content hash of the produced artifact.
	Artifact string `json:"artifact"`
	// ConfigJSON is the run's configuration, serialized.
	ConfigJSON string `json:"config_json"`
	// Seed is the run's RNG seed (0 when the run is deterministic).
	Seed int64 `json:"seed"`
	// GoVersion is the toolchain that produced the artifact.
	GoVersion string `json:"go_version"`
	// CodeHash identifies the code revision (VCS hash or "unknown").
	CodeHash string `json:"code_hash"`
	// Hash is the record's own chain hash, computed over every field
	// above (including Prev, which links the chain).
	Hash string `json:"hash"`
}

// chainHash computes the record's tamper-evidence hash over a typed,
// length-prefixed encoding of every field except Hash itself.
func (r ProvenanceRecord) chainHash() string {
	h := sha256.New()
	writeField := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	var seq [16]byte
	binary.LittleEndian.PutUint64(seq[:8], uint64(r.Seq))
	binary.LittleEndian.PutUint64(seq[8:], uint64(r.Seed))
	h.Write(seq[:])
	writeField(r.Prev)
	writeField(r.Key)
	writeField(r.Artifact)
	writeField(r.ConfigJSON)
	writeField(r.GoVersion)
	writeField(r.CodeHash)
	return hex.EncodeToString(h.Sum(nil))
}

// provKey names record seq in the backend; fixed-width so List order
// is chain order.
func provKey(seq int64) string { return fmt.Sprintf("prov/%012d", seq) }

// provenance tracks the chain head. Appends serialize on its mutex so
// sequence numbers are dense and each record links its true
// predecessor.
type provenance struct {
	mu       sync.Mutex
	nextSeq  int64
	headHash string
}

// load finds the chain head by replaying the persisted records in
// order. It trusts nothing: the head is wherever the verifiable dense
// prefix ends.
func (p *provenance) load(b Backend) error {
	keys, err := b.List("prov/")
	if err != nil {
		return err
	}
	p.nextSeq, p.headHash = 0, ""
	for _, k := range keys {
		data, err := b.Get(k)
		if err != nil {
			break
		}
		var r ProvenanceRecord
		if json.Unmarshal(data, &r) != nil || r.Seq != p.nextSeq {
			break
		}
		p.nextSeq++
		p.headHash = r.Hash
	}
	return nil
}

func (p *provenance) len() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextSeq
}

// appendProvenance links rec onto the chain and persists it. Seq,
// Prev and Hash are assigned here; the caller fills the descriptive
// fields. Under a degraded backend the record is linked in memory
// only, preserving chain integrity for the process's lifetime.
func (s *Store) appendProvenance(rec ProvenanceRecord) (ProvenanceRecord, error) {
	s.prov.mu.Lock()
	defer s.prov.mu.Unlock()
	rec.Seq = s.prov.nextSeq
	rec.Prev = s.prov.headHash
	rec.Hash = rec.chainHash()
	data, err := json.Marshal(rec)
	if err != nil {
		return rec, err
	}
	if s.b != nil && !s.degraded.Load() {
		if err := s.retry(func() error { return s.b.Put(provKey(rec.Seq), data) }); err != nil {
			s.enterDegraded(err)
			s.degradedOps.Add(1)
		}
	} else {
		s.degradedOps.Add(1)
	}
	s.prov.nextSeq++
	s.prov.headHash = rec.Hash
	return rec, nil
}

// VerifyProvenance re-walks the persisted chain, recomputing every
// link. It returns the number of verified records, or an error naming
// the first record whose hash, back-link or sequence is wrong — a
// tampered or truncated-in-the-middle chain never verifies.
func (s *Store) VerifyProvenance() (int64, error) {
	if s.b == nil {
		return 0, nil
	}
	keys, err := s.b.List("prov/")
	if err != nil {
		return 0, err
	}
	var n int64
	prev := ""
	for _, k := range keys {
		data, err := s.b.Get(k)
		if err != nil {
			return n, fmt.Errorf("store: provenance record %s unreadable: %w", k, err)
		}
		var r ProvenanceRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return n, fmt.Errorf("store: provenance record %s corrupt: %w", k, err)
		}
		if r.Seq != n {
			return n, fmt.Errorf("store: provenance chain broken at %s: seq %d, want %d", k, r.Seq, n)
		}
		if r.Prev != prev {
			return n, fmt.Errorf("store: provenance chain broken at seq %d: prev link mismatch", r.Seq)
		}
		if got := r.chainHash(); got != r.Hash {
			return n, fmt.Errorf("store: provenance record %d tampered: hash %s, recomputed %s", r.Seq, r.Hash, got)
		}
		prev = r.Hash
		n++
	}
	return n, nil
}

// Provenance returns the persisted chain in order (for inspection and
// tests); records are returned as stored, unverified.
func (s *Store) Provenance() ([]ProvenanceRecord, error) {
	if s.b == nil {
		return nil, nil
	}
	keys, err := s.b.List("prov/")
	if err != nil {
		return nil, err
	}
	out := make([]ProvenanceRecord, 0, len(keys))
	for _, k := range keys {
		data, err := s.b.Get(k)
		if err != nil {
			return nil, err
		}
		var r ProvenanceRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
