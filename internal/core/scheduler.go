package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/base"
	"repro/internal/compaction"
	"repro/internal/event"
	"repro/internal/manifest"
)

// JobKind classifies a maintenance job.
type JobKind int

const (
	// JobFlush drains one immutable memtable to level 0.
	JobFlush JobKind = iota
	// JobCompact runs a compaction candidate: a merge between levels, a
	// trivial move, or an in-place rewrite or drop of one file (the KiWi
	// eager erase, trigger range-delete).
	JobCompact
)

// String implements fmt.Stringer.
func (k JobKind) String() string {
	if k == JobCompact {
		return "compact"
	}
	return "flush"
}

// JobInfo records one completed maintenance job for observability. The
// interval [Started, Finished] lets tests and tools detect overlap between
// jobs — e.g. that a TTL compaction ran while a saturation compaction was
// still in flight.
type JobInfo struct {
	ID      uint64
	Kind    JobKind
	Trigger compaction.Trigger
	// Policy names the compaction policy the job ran under; empty for
	// flushes.
	Policy      string
	StartLevel  int
	OutputLevel int
	Started     time.Time
	Finished    time.Time
	BytesIn     uint64
	BytesOut    uint64
	Err         error
}

// maxRecentJobs bounds the completed-job ring buffer.
const maxRecentJobs = 64

// scheduler coordinates the maintenance executors: it counts running jobs,
// supports pausing (CompactAll's quiesce), and keeps a ring of
// recently completed jobs. Job priority lives in the picker, not here —
// every executor asks the picker for the most urgent disjoint job, and the
// picker orders TTL (DPT-critical) ahead of L0 ahead of saturation.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	paused  int // pause depth; executors idle while > 0
	running int

	nextID atomic.Uint64

	recent  [maxRecentJobs]JobInfo
	nRecent uint64 // total jobs ever recorded
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// newID allocates a job id.
func (s *scheduler) newID() uint64 { return s.nextID.Add(1) }

// begin registers an executor job start. It is non-blocking: when the
// scheduler is paused it returns false and the executor must back off. (A
// blocking begin could deadlock against a pauser that holds a resource the
// executor's caller owns.)
func (s *scheduler) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused > 0 {
		return false
	}
	s.running++
	return true
}

// end registers an executor job completion.
func (s *scheduler) end() {
	s.mu.Lock()
	s.running--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pauseCtx blocks new executor jobs and waits for running ones to finish.
// Pauses nest. If ctx fires while executor jobs are still draining, the
// pause is rolled back and the (bare) context error returned — the
// scheduler is left exactly as before the call. The context wake-up goes
// through wake, a broadcast under s.mu, so the same lost-wakeup discipline
// as end() applies.
func (s *scheduler) pauseCtx(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused++
	if err := condWaitCtx(ctx, s.cond, s.wake, func() bool { return s.running == 0 }); err != nil {
		s.paused--
		return err
	}
	return nil
}

// wake re-broadcasts the scheduler condition under its mutex; the context
// wake-up hook for condWaitCtx.
func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// resume undoes one pause, reporting whether the pause depth returned to
// zero (executors may pick up work again).
func (s *scheduler) resume() bool {
	s.mu.Lock()
	s.paused--
	resumed := s.paused == 0
	s.mu.Unlock()
	return resumed
}

// waitQuietCtx blocks until no executor job is running; returns the bare
// context error if ctx fires first.
func (s *scheduler) waitQuietCtx(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return condWaitCtx(ctx, s.cond, s.wake, func() bool { return s.running == 0 })
}

// anyRunning reports whether an executor job is in flight.
func (s *scheduler) anyRunning() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running > 0
}

// record appends a completed job to the ring.
func (s *scheduler) record(ji JobInfo) {
	s.mu.Lock()
	s.recent[s.nRecent%maxRecentJobs] = ji
	s.nRecent++
	s.mu.Unlock()
}

// jobOpName renders a job's operation label for trace events: "flush" or
// "compact/<trigger>".
func jobOpName(ji JobInfo) string {
	if ji.Kind == JobCompact {
		return "compact/" + ji.Trigger.String()
	}
	return ji.Kind.String()
}

// recordJob stamps a finished job with its end time and outcome, appends it
// to the observability ring and emits the matching JobCommit (or JobError)
// trace event — under the id, op and levels its JobClaim announced.
func (d *DB) recordJob(ji JobInfo, err error) {
	ji.Finished, ji.Err = time.Now(), err
	d.sched.record(ji)
	e := event.Event{
		Type:   event.JobCommit,
		Time:   ji.Finished,
		Op:     jobOpName(ji),
		Policy: ji.Policy,
		Job:    ji.ID,
		Level:  ji.StartLevel,
		Bytes:  int64(ji.BytesOut),
		Dur:    ji.Finished.Sub(ji.Started),
	}
	if ji.Err != nil {
		e.Type = event.JobError
		e.Err = ji.Err.Error()
	}
	d.trace.Emit(e)
}

// traceJobClaim emits the JobClaim event for a freshly picked job. policy is
// the policy's name for compaction claims and empty for flushes.
func (d *DB) traceJobClaim(id uint64, op string, level int, policy string) {
	d.trace.Emit(event.Event{Type: event.JobClaim, Op: op, Policy: policy, Job: id, Level: level})
}

// recentJobs returns the completed jobs still in the ring, oldest first.
func (s *scheduler) recentJobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nRecent
	if n > maxRecentJobs {
		n = maxRecentJobs
	}
	out := make([]JobInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, s.recent[(s.nRecent-n+i)%maxRecentJobs])
	}
	return out
}

// resumeMaintenance undoes one scheduler pause; when the pause depth
// returns to zero it re-notifies the executors, whose begin() calls failed
// (backed off to their select loops) while the pause was in force. Without
// the nudge, maintenance left pending at resume time — and any writer
// stalled on backpressure waiting for it — would sit idle until the next
// MaintenanceTickInterval tick.
func (d *DB) resumeMaintenance() {
	if d.sched.resume() {
		d.notifyWork()
	}
}

// RecentMaintJobs returns the most recently completed maintenance jobs
// (flushes and compactions of every trigger), oldest first. The window is
// bounded; it is an observability aid, not a durable log.
func (d *DB) RecentMaintJobs() []JobInfo { return d.sched.recentJobs() }

// ---------------------------------------------------------------------------
// Executors

// startExecutors launches the maintenance pool: n goroutines running the one
// executor loop. The first executor flushes; the other n-1 run compactions
// and eager range-delete work level/key-disjoint from every in-flight job.
// A pool of one has nobody else to compact, so its step is the whole
// MaintenanceStep — flush, then eager work, then a compaction, strictly in
// that order — which is what deterministic drivers call by hand.
func (d *DB) startExecutors(n int) {
	kind, step := "flush", d.runFlushStep
	if n == 1 {
		kind, step = "maintenance", d.MaintenanceStep
	}
	d.wg.Add(n)
	go d.executor(kind, d.flushCh, step)
	for i := 1; i < n; i++ {
		go d.executor("compaction", d.compCh, d.runCompactionStep)
	}
}

// executor is the maintenance loop every pool member runs: sleep until woken
// (or the tick, which is what detects TTL expiry), then run step until it
// reports no work. Each step is bracketed by sched.begin/end, so a pause
// (CompactAll) freezes the whole pool, whatever its size.
// Transient step errors retry with capped exponential backoff (a failed
// flush leaves its immutable queued, so the retry re-runs the same work);
// permanent or retry-exhausted errors set the sticky background error and
// stop the executor. kind labels the retry log lines and trace events.
func (d *DB) executor(kind string, wake <-chan struct{}, step func() (bool, error)) {
	defer d.wg.Done()
	ticker := time.NewTicker(d.opts.MaintenanceTickInterval)
	defer ticker.Stop()
	failures := 0
	for {
		select {
		case <-d.closeCh:
			return
		case <-wake:
		case <-ticker.C:
		}
		for {
			select {
			case <-d.closeCh:
				return
			default:
			}
			if !d.sched.begin() {
				break // paused; the pauser drives any needed work
			}
			did, err := step()
			d.sched.end()
			if err != nil {
				failures++
				if !d.noteJobError(kind, failures, err) {
					return
				}
				if !d.backoffWait(d.backoffDelay(failures)) {
					return
				}
				continue
			}
			failures = 0
			if !did {
				break
			}
		}
	}
}

// runFlushStep flushes one immutable memtable if any is queued.
func (d *DB) runFlushStep() (bool, error) {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	return d.flushOne()
}

// runCompactionStep claims and runs one unit of non-flush maintenance:
// eager range-delete work first (it is cheap and unblocks space), then the
// most urgent disjoint compaction.
func (d *DB) runCompactionStep() (bool, error) {
	var job *compactJob
	if d.opts.EagerRangeDeletes {
		job = d.pickEagerJob()
	}
	if job == nil {
		job = d.pickCompactionJob()
	}
	if job == nil {
		return false, nil
	}
	return true, d.runCompactionJob(job)
}

// compactJob is a picked-and-claimed compaction awaiting execution.
type compactJob struct {
	id   uint64
	v    *manifest.Version // the version the candidate was picked against, referenced until the job ends
	cand *compaction.Candidate

	// Set by pickEagerJob only: the range tombstones live at the pick (none
	// is in the input file), the watermark eagerDone takes once the job has
	// run, and whether the whole file is covered.
	live       []base.RangeTombstone
	applicable base.SeqNum
	covered    bool
}

// pickCompactionJob atomically picks the most urgent compaction disjoint
// from all in-flight jobs and claims its files and rectangle.
func (d *DB) pickCompactionJob() *compactJob { return d.claimJob(d.policy.Pick) }

// claimJob runs pick against the current version and the running jobs'
// claims, and claims the candidate it returns. pickMu makes pick+claim
// atomic: without it two executors could pick overlapping work before
// either claim landed.
func (d *DB) claimJob(pick func(v *manifest.Version, now base.Timestamp, haveSnaps bool, claims *compaction.InFlightSet) *compaction.Candidate) *compactJob {
	d.pickMu.Lock()
	defer d.pickMu.Unlock()
	// Claims must be copied before the version is read (see
	// InFlightSet.Snapshot): a job committing in between is then either
	// still claimed or already applied, never invisible to both checks.
	claims := d.inflight.Snapshot()
	d.mu.Lock()
	v := d.vs.Ref()
	now := d.opts.Clock.Now()
	haveSnaps := len(d.snapshots) > 0
	d.mu.Unlock()

	cand := pick(v, now, haveSnaps, claims)
	if cand == nil {
		d.unref(v)
		return nil
	}
	id := d.sched.newID()
	d.inflight.ClaimCandidate(id, cand)
	d.traceJobClaim(id, "compact/"+cand.Trigger.String(), cand.StartLevel, d.policy.Name())
	return &compactJob{id: id, v: v, cand: cand}
}

// runCompactionJob executes a claimed compaction and releases its claim and
// its version: the job's inputs die here unless a reader still holds them.
func (d *DB) runCompactionJob(j *compactJob) error {
	d.stats.CompactionsInFlight.Add(1)
	err := d.runCandidate(j)
	d.stats.CompactionsInFlight.Add(-1)
	d.inflight.Release(j.id)
	d.unref(j.v)
	return err
}
