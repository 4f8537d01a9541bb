// Persistence seam. The manager does not know about the artifact
// store; the serve layer implements Persist over it. Records and
// checkpoints are both durable when their call returns. The manager
// saves a terminal record before it releases the job's waiters, so a
// job that Wait or a poll reports terminal is durably terminal; and a
// checkpoint that is not durable before the runner advances past it
// is not a checkpoint.
package jobs

// Persist receives job records and checkpoints as they change. A nil
// Persist makes the manager purely in-memory.
type Persist interface {
	// SaveJob records the job snapshot and returns once it would
	// survive a crash. Errors are logged, not returned — the job
	// itself proceeds regardless.
	SaveJob(j Job)
	// SaveCheckpoint durably records partial progress. It must not
	// return until the checkpoint would survive a crash; an error
	// fails the job (advancing past a lost checkpoint breaks the
	// resume contract).
	SaveCheckpoint(j Job, ck Checkpoint) error
}
