// Async job tier endpoints: POST /v1/jobs submits work to the bounded
// priority queue of internal/jobs, GET /v1/jobs/{id} polls it, DELETE
// cancels it, and GET /v1/jobs/{id}/events streams the job's live span
// events over SSE. Job records and checkpoints both save synchronously,
// so a killed daemon restarts with its job history intact and resumes
// interrupted Monte-Carlo runs from the last checkpoint (see
// recoverJobs).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ccdac/internal/jobs"
)

// jobIndexKey and jobCkKey are the artifact-store index keys of a
// job's latest record and its latest checkpoint. Recovery enumerates
// the records by jobPrefix in the store's index.
func jobIndexKey(id string) string { return jobPrefix + id }
func jobCkKey(id string) string    { return "jobck/" + id }

const jobPrefix = "job/"

// handleJobSubmit accepts a job spec, reserves queue capacity, and
// answers 202 with the queued record — or 429 with queue depth and an
// honest Retry-After when the bounded queue is full.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: decoding job spec: %w", err))
		return
	}
	job, err := s.jobs.Submit(spec)
	if err != nil {
		var oe *jobs.OverflowError
		if errors.As(err, &oe) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(oe.RetryAfter)))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{
				Error:      err.Error(),
				RequestID:  RequestID(r.Context()),
				QueueDepth: oe.Depth,
			})
			return
		}
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Cancel(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams one job's live span events (its traces are
// tagged with the job ID on the shared bus) until the job reaches a
// terminal state, then sends a final job_done event carrying the full
// record and closes. Unlike /v1/events, a trace_finish does not end
// the stream: one job emits several traces (prefix + tail, or one per
// checkpointed block run).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
		return
	}
	s.serveSSE(w, r, id, nil, func(ctx context.Context) (sseFinal, bool) {
		j, err := s.jobs.Wait(ctx, id)
		return sseFinal{event: "job_done", data: j}, err == nil
	})
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, at least 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// jobStore adapts the server's artifact store to jobs.Persist.
type jobStore struct{ s *Server }

// SaveJob persists the job record synchronously, as SaveCheckpoint
// does. The manager saves a terminal record before it releases the
// job's waiters, so a job reported terminal is durably terminal, and
// no record is dropped the way a full write-behind queue drops one.
func (p *jobStore) SaveJob(j jobs.Job) {
	job := persistJob{key: jobIndexKey(j.ID), payload: j}
	if j.State.Terminal() {
		// Terminal records join the provenance chain: the final result
		// is tied to the spec that produced it, like cached generates.
		job.config = j.Spec
	}
	if err := p.s.persist.save(job); err != nil {
		p.s.log.Warn("job record not persisted", "job", j.ID, "err", err)
	}
}

// SaveCheckpoint persists synchronously — the worker blocks until the
// checkpoint is durable, because the resume contract depends on it. A
// degraded (memory-only) store cannot promise durability, so the job
// proceeds checkpoint-less rather than failing outright.
func (p *jobStore) SaveCheckpoint(j jobs.Job, ck jobs.Checkpoint) error {
	if degraded, _ := p.s.store.Degraded(); degraded {
		return nil
	}
	return p.s.persist.save(persistJob{key: jobCkKey(j.ID), payload: ck, config: j.Spec, seed: j.Spec.Seed})
}

// recoverJobs reloads persisted job records at boot: terminal jobs
// become queryable history, interrupted ones re-enqueue and resume
// from their last checkpoint — the other half of the crash-safety
// contract (SIGKILL mid-run, restart, identical final output). The
// records are the index's job/ keys, which the store replayed at open.
func (s *Server) recoverJobs() {
	restored, resumed := 0, 0
	for _, key := range s.store.IndexKeys(jobPrefix) {
		var j jobs.Job
		if !s.loadJSON(key, &j) || j.ID == "" {
			continue
		}
		var ck *jobs.Checkpoint
		if c := new(jobs.Checkpoint); s.loadJSON(jobCkKey(j.ID), c) {
			ck = c
		}
		if !j.State.Terminal() {
			resumed++
		}
		s.jobs.Restore(j, ck)
		restored++
	}
	if restored > 0 {
		s.log.Info("job records recovered", "restored", restored, "resumed", resumed)
	}
}
