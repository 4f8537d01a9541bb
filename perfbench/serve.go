// Workload serve: a ccdacd daemon built from the same commit, driven
// over loopback.
//
// Why: it is the only workload that runs decode → result cache /
// singleflight → stage memo → job queue / coalescer → compute →
// encode, and its background Monte Carlo contends with interactive
// requests for the same cores.
//
// The daemon runs at its shipped defaults (tracing, flight recorder,
// profile trigger and numeric watchdog on; no -store-dir). One process
// drives it with at most two connections, in an open loop: requests are
// due on a seeded schedule at a fixed offered rate with jittered
// uniform gaps, and each request is timed from when it was due. The
// rate, serveRate, is about a quarter of the ~210 requests/s at which
// this mix saturates a 2-core host; at half, queueing on the two shared
// cores made the latency percentiles vary too much between runs.
// Generate traffic comes in blocks of ten with exact class counts:
//
//	3 hit     exact repeats of a four-config hot set (result cache)
//	4 prefix  a prefix array with a theta_steps it has not had yet
//	          (stage memo: only sweep + NL recompute)
//	3 bypass  cache:"bypass" cold requests at 6–10 bits, 4–12 theta steps
//
// Every jobEvery a burst of jobBurst compatible 10-bit yield jobs (same
// prefix, distinct seeds) goes to /v1/jobs alongside.
//
// Layers loaded: serve (decode, cache, singleflight, encode), memo,
// jobs (queue, coalescer), core and every pipeline layer under it,
// variation and dacmodel Monte Carlo, obs (always-on tracing).
//
// Set-up: daemon exec until /readyz answers 200, repeated bootReps
// times (the last daemon serves the run). The hot set, the prefix
// arrays and one job prefix are warmed afterwards, untimed.
//
// End-to-end: op_p50_s / op_p90_s are /v1/generate latencies from due
// time, ops_per_s is completed generates per wall second, peak_rss_mb
// is the daemon's.
//
// Per-layer metrics are measured from outside: the client clock, each
// response's elapsed_seconds, cache_status, warnings and counters, and
// the job records.
//
//	serve.overhead_p50_s (client time minus elapsed_seconds) → op_p50_s
//	serve.hit_ratio, serve.hit_p50_s                           → op_p50_s
//	serve.prefix_p50_s, serve.bypass_p50_s (their gap is the
//	  stage-memo saving)                                       → op_p90_s
//	jobs.queue_wait_p50_s, jobs.run_p50_s, jobs.group_mean,
//	  jobs.job_p50_s, jobs.samples_per_s                       → op_p90_s
//	loadgen.late_p90_s (how far the open loop turned closed)
//	serve.refused_429, variation.dense_fallbacks,
//	  extract.cg_fallbacks                                     (counts)
//
// Checks: every 200 response equals an in-process Generate of its
// config and the committed reference; every yield job finishes and its
// sample_hash equals an in-process jobs.Manager run of the same spec.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccdac"
	"ccdac/internal/jobs"
	"ccdac/internal/serve"
)

const (
	serveRate  = 50.0 // offered /v1/generate requests per second
	serveConns = 2
	// bootReps is how many daemons set-up starts; a boot takes a few
	// milliseconds, so it takes more than setupReps for a steady median.
	bootReps       = 15
	jobEvery       = 2.5 // seconds between yield-job bursts
	jobBurst       = 4
	jobSamples     = 600
	jobSpecINL     = 0.5
	serveMaxBits   = 10
	serveMinBits   = 6
	requestTimeout = 60 * time.Second
)

var serveStyles = []ccdac.Style{ccdac.Spiral, ccdac.Chessboard, ccdac.BlockChessboard}

// bypassThetas are the theta_steps values of bypass requests.
var bypassThetas = []int{4, 6, 8, 10, 12}

// prefixThetas are the theta_steps values prefix variants use, lowest
// first; 8 (the default, used by the hot set and bypass traffic) is
// excluded so a variant never hits the result cache.
func prefixThetas() []int {
	var out []int
	for th := 3; th <= 48; th++ {
		if th != 8 {
			out = append(out, th)
		}
	}
	return out
}

// servePool is every generate configuration the serve workload can
// issue.
func servePool() []genSpec {
	var out []genSpec
	for bits := serveMinBits; bits <= serveMaxBits; bits++ {
		for _, st := range serveStyles {
			out = append(out, genSpec{Bits: bits, Style: st, MaxParallel: 2, Theta: 8})
			for _, th := range prefixThetas() {
				out = append(out, genSpec{Bits: bits, Style: st, MaxParallel: 2, Theta: th})
			}
		}
	}
	return out
}

// Request classes.
const (
	classHit = iota
	classPrefix
	classBypass
	classJob
)

// item is one scheduled request.
type item struct {
	due   time.Duration
	class int
	gen   genSpec
	seed  int64 // job seed
}

// sample is what the load generator observed for one item.
type sample struct {
	item
	sent, done time.Duration
	status     int
	resp       serve.GenerateResponse
	jobID      string
	err        error
}

// plan is one run's seeded traffic: the schedule plus the configs the
// warm-up must prime.
type plan struct {
	items  []item
	hot    []genSpec
	arrays []genSpec
}

func jobSpec(seed int64, samples int) jobs.Spec {
	return jobs.Spec{Kind: jobs.KindYield, Bits: 10, Style: string(ccdac.Spiral), MaxParallel: 2,
		Samples: samples, Seed: seed, SpecINL: jobSpecINL}
}

// cycler hands out the elements of a set in successive seeded
// permutations: every element is used equally often, so the traffic
// mix is the same for every seed and only its order differs.
type cycler[T any] struct {
	rng   *rand.Rand
	items []T
	order []int
}

func (c *cycler[T]) next() T {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.items))
	}
	i := c.order[0]
	c.order = c.order[1:]
	return c.items[i]
}

// makePlan derives the whole schedule from the seed.
func makePlan(seed int64, seconds float64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	// Every 6-10 bit array is a prefix array and a bypass config. The hot
	// set has one config per bit count but one; the seed picks its styles
	// and which bit count sits out.
	skip := serveMinBits + rng.Intn(serveMaxBits-serveMinBits+1)
	for bits := serveMinBits; bits <= serveMaxBits; bits++ {
		for _, st := range serveStyles {
			p.arrays = append(p.arrays, genSpec{Bits: bits, Style: st, MaxParallel: 2, Theta: 8})
		}
		if bits != skip {
			p.hot = append(p.hot, genSpec{Bits: bits, Style: serveStyles[rng.Intn(len(serveStyles))], MaxParallel: 2, Theta: 8})
		}
	}

	n := int(serveRate * seconds)
	var classes []int
	nPrefix := 0
	for len(classes) < n {
		block := []int{classHit, classHit, classHit, classPrefix, classPrefix, classPrefix, classPrefix, classBypass, classBypass, classBypass}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, cl := range block {
			if len(classes) < n && cl == classPrefix {
				nPrefix++
			}
			classes = append(classes, cl)
		}
	}
	// Each array gets the same lowest theta counts, in seeded order.
	need := (nPrefix + len(p.arrays) - 1) / len(p.arrays)
	if need > len(prefixThetas()) {
		return nil, fmt.Errorf("serve plan: %d prefix variants per array, only %d theta counts; shorten --seconds", need, len(prefixThetas()))
	}
	thetas := make([][]int, len(p.arrays))
	for i := range thetas {
		th := prefixThetas()[:need]
		rng.Shuffle(len(th), func(a, b int) { th[a], th[b] = th[b], th[a] })
		thetas[i] = th
	}
	hot := &cycler[genSpec]{rng: rng, items: p.hot}
	// Bypass traffic spreads over theta counts too, so its costs form a
	// continuum rather than a few clusters a percentile could fall
	// between.
	var bypassSet []genSpec
	for _, g := range p.arrays {
		for _, th := range bypassThetas {
			g.Theta = th
			bypassSet = append(bypassSet, g)
		}
	}
	bypass := &cycler[genSpec]{rng: rng, items: bypassSet}
	arrays := &cycler[int]{rng: rng, items: rng.Perm(len(p.arrays))}

	due := 0.0
	for _, cl := range classes[:n] {
		due += (0.5 + rng.Float64()) / serveRate
		it := item{due: time.Duration(due * float64(time.Second)), class: cl}
		switch cl {
		case classHit:
			it.gen = hot.next()
		case classPrefix:
			a := arrays.next()
			it.gen = p.arrays[a]
			it.gen.Theta, thetas[a] = thetas[a][0], thetas[a][1:]
		case classBypass:
			it.gen = bypass.next()
		}
		p.items = append(p.items, it)
	}
	for at := jobEvery / 2; at < seconds; at += jobEvery {
		for k := 0; k < jobBurst; k++ {
			p.items = append(p.items, item{due: time.Duration(at * float64(time.Second)), class: classJob, seed: 1 + rng.Int63n(1<<40)})
		}
	}
	sort.SliceStable(p.items, func(a, b int) bool { return p.items[a].due < p.items[b].due })
	return p, nil
}

// daemon is one running ccdacd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained sync.WaitGroup
}

// startDaemon execs the daemon on a free loopback port and waits until
// /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	d.drained.Add(1)
	go func() {
		defer d.drained.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "ccdacd listening" {
				addr <- rec.Addr
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		if !sent {
			close(addr)
		}
	}()
	deadline := time.After(30 * time.Second)
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("daemon exited before listening")
		}
		d.base = "http://" + a
	case <-deadline:
		d.stop()
		return nil, fmt.Errorf("daemon did not report its address")
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("daemon never became ready")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 20s), waits for
// it, and returns its peak resident set in MB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.drained.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	_ = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// client is the load generator's HTTP side: at most serveConns
// connections to the daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) post(path string, body any, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (c *client) getJob(id string) (jobs.Job, error) {
	var j jobs.Job
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET job %s: status %d", id, resp.StatusCode)
	}
	return j, json.NewDecoder(resp.Body).Decode(&j)
}

func generateBody(g genSpec, bypass bool) serve.GenerateRequest {
	req := serve.GenerateRequest{Bits: g.Bits, Style: string(g.Style), MaxParallel: g.MaxParallel, ThetaSteps: g.Theta}
	if bypass {
		req.Cache = "bypass"
	}
	return req
}

// do sends one item and records what came back.
func (c *client) do(it item) sample {
	s := sample{item: it}
	if it.class == classJob {
		var j jobs.Job
		s.status, s.err = c.post("/v1/jobs", jobSpec(it.seed, jobSamples), &j)
		s.jobID = j.ID
		return s
	}
	s.status, s.err = c.post("/v1/generate", generateBody(it.gen, it.class == classBypass), &s.resp)
	return s
}

// drive runs the open loop: serveConns senders take items in due
// order, wait until each is due, send it and record the result.
func (c *client) drive(items []item) []sample {
	out := make([]sample, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if wait := items[i].due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				s := c.do(items[i])
				s.sent, s.done = sent, time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

func runServe(o options) (*outcome, error) {
	p, err := makePlan(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	var d *daemon
	var boots []float64
	for i := 0; i < bootReps; i++ {
		start := time.Now()
		nd, err := startDaemon(o.ccdacd)
		if err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(start).Seconds())
		if i < bootReps-1 {
			nd.stop()
			continue
		}
		d = nd
	}
	out := newOutcome()
	samples, jobRecs, err := serveRun(d, p)
	rss := d.stop()
	if err != nil {
		return nil, err
	}

	var lat, hitLat, prefixLat, bypassLat, overhead, late []float64
	hits, ok200, refused, dense, cgFallbacks := 0, 0, 0, 0, 0
	var lastDone time.Duration
	for _, s := range samples {
		out.attempted++
		late = append(late, (s.sent - s.due).Seconds())
		switch {
		case s.err != nil:
			out.fail("%s: %v", describe(s.item), s.err)
			continue
		case s.status == http.StatusTooManyRequests:
			refused++
			out.fail("%s: refused with 429", describe(s.item))
			continue
		case s.class == classJob && s.status != http.StatusAccepted,
			s.class != classJob && s.status != http.StatusOK:
			out.fail("%s: status %d", describe(s.item), s.status)
			continue
		case s.class == classJob:
			continue
		}
		ok200++
		l := (s.done - s.due).Seconds()
		lat = append(lat, l)
		lastDone = max(lastDone, s.done)
		overhead = append(overhead, (s.done-s.sent).Seconds()-s.resp.ElapsedSeconds)
		switch s.class {
		case classHit:
			hitLat = append(hitLat, l)
		case classPrefix:
			prefixLat = append(prefixLat, l)
		case classBypass:
			bypassLat = append(bypassLat, l)
		}
		if s.resp.CacheStatus == "hit" {
			hits++
		}
		dense += countDense(s.resp.Warnings)
		cgFallbacks += int(s.resp.Counters["ccdac_rcnet_cg_fallback_total"])
	}
	checkServeOutputs(out, o.ref, samples)
	jobStats := checkJobs(out, samples, jobRecs)
	dense += jobStats.dense

	if !o.trace {
		out.e2e["setup_s"] = median(boots)
		out.e2e["op_p50_s"] = median(lat)
		out.e2e["op_p90_s"] = quantile(lat, 0.9)
		if lastDone > 0 {
			out.e2e["ops_per_s"] = float64(ok200) / lastDone.Seconds()
		}
		out.e2e["peak_rss_mb"] = rss
		return out, nil
	}
	out.layer["serve.overhead_p50_s"] = median(overhead)
	if ok200 > 0 {
		out.layer["serve.hit_ratio"] = float64(hits) / float64(ok200)
	}
	out.layer["serve.hit_p50_s"] = median(hitLat)
	out.layer["serve.prefix_p50_s"] = median(prefixLat)
	out.layer["serve.bypass_p50_s"] = median(bypassLat)
	out.layer["serve.refused_429"] = float64(refused)
	out.layer["loadgen.late_p90_s"] = quantile(late, 0.9)
	out.layer["variation.dense_fallbacks"] = float64(dense)
	out.layer["extract.cg_fallbacks"] = float64(cgFallbacks)
	out.layer["jobs.job_p50_s"] = median(jobStats.total)
	out.layer["jobs.queue_wait_p50_s"] = median(jobStats.wait)
	out.layer["jobs.run_p50_s"] = median(jobStats.run)
	out.layer["jobs.group_mean"] = mean(jobStats.group)
	out.layer["jobs.samples_per_s"] = jobStats.samplesPerS
	return out, nil
}

// serveRun warms the daemon, drives the schedule and collects the final
// job records.
func serveRun(d *daemon, p *plan) ([]sample, map[string]jobs.Job, error) {
	c := newClient(d.base)
	warm := append(append([]genSpec(nil), p.hot...), p.arrays...)
	for _, g := range warm {
		if st, err := c.post("/v1/generate", generateBody(g, false), nil); err != nil || st != http.StatusOK {
			return nil, nil, fmt.Errorf("warm-up %s: status %d: %v", g.key(), st, err)
		}
	}
	var j jobs.Job
	if st, err := c.post("/v1/jobs", jobSpec(1, 16), &j); err != nil || st != http.StatusAccepted {
		return nil, nil, fmt.Errorf("warm-up job: status %d: %v", st, err)
	}
	if _, err := waitJobs(c, []string{j.ID}); err != nil {
		return nil, nil, err
	}

	samples := c.drive(p.items)
	var ids []string
	for _, s := range samples {
		if s.jobID != "" {
			ids = append(ids, s.jobID)
		}
	}
	recs, err := waitJobs(c, ids)
	return samples, recs, err
}

// waitJobs polls until every job is terminal and returns the records.
func waitJobs(c *client, ids []string) (map[string]jobs.Job, error) {
	recs := make(map[string]jobs.Job, len(ids))
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			j, err := c.getJob(id)
			if err != nil {
				return nil, err
			}
			if j.State.Terminal() {
				recs[id] = j
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %s still %s at deadline", id, j.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return recs, nil
}

func describe(it item) string {
	switch it.class {
	case classJob:
		return fmt.Sprintf("yield job seed %d", it.seed)
	case classBypass:
		return "bypass " + it.gen.key()
	case classPrefix:
		return "prefix " + it.gen.key()
	}
	return "hit " + it.gen.key()
}

// checkServeOutputs compares every 200 response with an in-process
// Generate of its config (exactly: same commit) and with the reference.
func checkServeOutputs(out *outcome, ref *reference, samples []sample) {
	inproc := map[string]ccdac.Metrics{}
	for _, s := range samples {
		if s.class == classJob || s.err != nil || s.status != http.StatusOK {
			continue
		}
		key := s.gen.key()
		want, ok := inproc[key]
		if !ok {
			res, err := ccdac.Generate(s.gen.config(0))
			if err != nil {
				out.fail("in-process %s: %v", key, err)
				continue
			}
			want = res.Metrics
			inproc[key] = want
		}
		if err := diffMetrics(want, s.resp.Metrics, 0); err != nil {
			out.fail("%s differs from in-process result: %v", describe(s.item), err)
		}
		if err := ref.checkGenerate(s.gen, s.resp.Metrics); err != nil {
			out.fail("%s: %v", describe(s.item), err)
		}
	}
}

type jobSummary struct {
	total, wait, run, group []float64
	samplesPerS             float64
	dense                   int
}

// checkJobs validates the yield-job records against an in-process
// jobs.Manager run of the same specs and summarizes their timing.
func checkJobs(out *outcome, samples []sample, recs map[string]jobs.Job) jobSummary {
	var js jobSummary
	var specs []jobs.Spec
	var ids []string
	for _, s := range samples {
		if s.jobID != "" {
			specs = append(specs, jobSpec(s.seed, jobSamples))
			ids = append(ids, s.jobID)
		}
	}
	want, err := inProcessHashes(specs)
	if err != nil {
		out.fail("in-process yield jobs: %v", err)
		return js
	}
	var first, last int64
	totalSamples := 0
	for i, id := range ids {
		j := recs[id]
		if j.State != jobs.StateDone {
			out.fail("yield job %s: state %s: %s", id, j.State, j.Error)
			continue
		}
		var yr jobs.YieldResult
		if err := json.Unmarshal(j.Result, &yr); err != nil {
			out.fail("yield job %s: %v", id, err)
			continue
		}
		if yr.SampleHash != want[i] || yr.Samples != jobSamples {
			out.fail("yield job %s: %d samples hash %s, in-process %s", id, yr.Samples, yr.SampleHash, want[i])
		}
		js.dense += countDense(yr.Warnings)
		totalSamples += yr.Samples
		js.total = append(js.total, float64(j.FinishedMS-j.CreatedMS)/1000)
		js.wait = append(js.wait, float64(j.StartedMS-j.CreatedMS)/1000)
		js.run = append(js.run, float64(j.FinishedMS-j.StartedMS)/1000)
		js.group = append(js.group, float64(j.Coalesced))
		if first == 0 || j.CreatedMS < first {
			first = j.CreatedMS
		}
		last = max(last, j.FinishedMS)
	}
	if last > first {
		js.samplesPerS = float64(totalSamples) / (float64(last-first) / 1000)
	}
	return js
}

// inProcessHashes runs specs through an in-process job manager and
// returns each result's sample hash, in order.
func inProcessHashes(specs []jobs.Spec) ([]string, error) {
	m := jobs.New(jobs.Options{QueueDepth: len(specs) + 1, ComputeWorkers: runtime.NumCPU(), Memo: true})
	defer m.Close()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		j, err := m.Submit(sp)
		if err != nil {
			return nil, err
		}
		ids[i] = j.ID
	}
	out := make([]string, len(specs))
	for i, id := range ids {
		j, err := m.Wait(context.Background(), id)
		if err != nil {
			return nil, err
		}
		if j.State != jobs.StateDone {
			return nil, errors.New(j.Error)
		}
		var yr jobs.YieldResult
		if err := json.Unmarshal(j.Result, &yr); err != nil {
			return nil, err
		}
		out[i] = yr.SampleHash
	}
	return out, nil
}
