// Compatibility micro-batching: a time- and size-bounded coalescer.
// Submitted jobs sharing a prefix key wait up to maxWait for company;
// a group flushes early when it reaches maxBatch. This generalizes the
// memo's shared pending entries — which only merge a request with an
// already-running identical one — to merging *queued* work that is
// merely compatible: same expensive prefix, different cheap tails.
package jobs

import (
	"sync"
	"time"
)

type pendingGroup struct {
	g     *group
	timer *time.Timer
}

type coalescer struct {
	mu       sync.Mutex
	maxBatch int
	maxWait  time.Duration
	pending  map[string]*pendingGroup
	flush    func(*group)
	closed   bool
}

func newCoalescer(maxBatch int, maxWait time.Duration, flush func(*group)) *coalescer {
	return &coalescer{
		maxBatch: maxBatch,
		maxWait:  maxWait,
		pending:  make(map[string]*pendingGroup),
		flush:    flush,
	}
}

// submit routes one job toward the queue. Non-coalescable jobs
// (key == "") and degenerate configurations flush immediately as
// singleton groups; coalescable jobs join or open a pending group
// under key+class. Groups never mix priority classes: a background
// job must not ride an interactive group past the queue's ordering.
func (c *coalescer) submit(st *jobState, key string, class int) {
	if key == "" || c.maxBatch <= 1 || c.maxWait <= 0 {
		c.flush(&group{key: key, class: class, items: []*jobState{st}})
		return
	}
	id := key + "/" + string(rune('0'+class))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.flush(&group{key: key, class: class, items: []*jobState{st}})
		return
	}
	pg, ok := c.pending[id]
	if !ok {
		pg = &pendingGroup{g: &group{key: key, class: class}}
		c.pending[id] = pg
		pg.timer = time.AfterFunc(c.maxWait, func() { c.fire(id, pg) })
	}
	pg.g.items = append(pg.g.items, st)
	if len(pg.g.items) >= c.maxBatch {
		delete(c.pending, id)
		pg.timer.Stop()
		g := pg.g
		c.mu.Unlock()
		c.flush(g)
		return
	}
	c.mu.Unlock()
}

// fire is the maxWait deadline: flush whatever the group gathered.
// The pg identity check defuses the race where the size bound already
// flushed this group and a new one reused the id.
func (c *coalescer) fire(id string, pg *pendingGroup) {
	c.mu.Lock()
	if c.pending[id] != pg {
		c.mu.Unlock()
		return
	}
	delete(c.pending, id)
	g := pg.g
	c.mu.Unlock()
	c.flush(g)
}

// drain flushes every pending group immediately (shutdown path).
func (c *coalescer) drain() {
	c.mu.Lock()
	c.closed = true
	pend := c.pending
	c.pending = make(map[string]*pendingGroup)
	c.mu.Unlock()
	for _, pg := range pend {
		pg.timer.Stop()
		c.flush(pg.g)
	}
}
