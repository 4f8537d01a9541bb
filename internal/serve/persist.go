// Durable result persistence (write-behind): cold generate results are
// serialized and queued for the artifact store off the request path, so
// a request never blocks on disk and a daemon restart finds the result
// cache warm (docs/ROBUSTNESS.md, "Durable artifact store"). Each
// persisted artifact also appends a hash-chained provenance record
// (request config, seed, toolchain, code revision), making stored
// results tamper-evident and reproducible. Job records and checkpoints
// skip the queue and call save directly (jobs.go).
package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"ccdac/internal/store"
)

// persistJob is one artifact to make durable. Cold generate results,
// tail-sampled traces and profiles ride the write-behind queue (enqueue);
// job records and checkpoints save synchronously (save).
type persistJob struct {
	// key is the store index key the artifact is saved under.
	key string
	// payload is the artifact: []byte is stored as is, anything else
	// is JSON-encoded by the persister, so results are encoded off the
	// request path.
	payload any
	// config is the provenance record's ConfigJSON, encoded the same
	// way; nil appends no record (high-churn non-terminal job records
	// stay off the chain). seed is the record's Seed.
	config any
	seed   int64
}

// persister drains persist jobs through one background goroutine into
// the artifact store. Enqueue never blocks: a full queue drops the job
// (the result is still served and cached in memory; only durability is
// lost) and counts the drop.
type persister struct {
	st      *store.Store
	ch      chan persistJob
	mu      sync.Mutex
	closed  bool
	pending sync.WaitGroup // in-queue jobs, for Flush
	done    chan struct{}
	dropped atomic.Int64
}

// persistQueue bounds the write-behind queue: when the disk cannot
// keep up, further artifacts stay memory-only and the drop counter
// ticks rather than any request blocking.
const persistQueue = 256

func newPersister(st *store.Store) *persister {
	p := &persister{st: st, ch: make(chan persistJob, persistQueue), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *persister) loop() {
	defer close(p.done)
	for job := range p.ch {
		_ = p.save(job)
		p.pending.Done()
	}
}

// save makes one artifact durable through store.Save: blob, index entry
// and, when job carries a config, a provenance link. Store-level
// failures degrade inside the store (it flips memory-only); the error
// is an encoding failure, which the write-behind path drops and the
// synchronous job-record and checkpoint paths report.
func (p *persister) save(job persistJob) error {
	blob, err := encode(job.payload)
	if err != nil {
		return err
	}
	var prov *store.ProvenanceRecord
	if job.config != nil {
		cfg, err := encode(job.config)
		if err != nil {
			return err
		}
		prov = &store.ProvenanceRecord{ConfigJSON: string(cfg), Seed: job.seed}
	}
	return p.st.Save(job.key, blob, prov)
}

// encode returns v's stored bytes: v itself when it already is bytes,
// its JSON encoding otherwise.
func encode(v any) ([]byte, error) {
	if b, ok := v.([]byte); ok {
		return b, nil
	}
	return json.Marshal(v)
}

// enqueue queues one job, dropping (and counting) when the queue is
// full or the persister is closed.
func (p *persister) enqueue(job persistJob) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.dropped.Add(1)
		return
	}
	p.pending.Add(1)
	select {
	case p.ch <- job:
	default:
		p.pending.Done()
		p.dropped.Add(1)
	}
}

// flush blocks until every queued job has been persisted.
func (p *persister) flush() { p.pending.Wait() }

// close flushes and stops the background goroutine. Safe to call more
// than once; enqueues after close drop.
func (p *persister) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.flush()
	close(p.ch)
	<-p.done
}
