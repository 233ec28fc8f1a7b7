package scheduler

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/telemetry"
)

// Policy orders a batch queue's runnable tasks. Implementations pick which
// task starts next when a slot frees up.
type Policy interface {
	// Next returns the index of the task to dispatch next, or -1 to leave
	// everything queued. runnable holds the pending tasks some machine
	// has a free slot for, in submission order.
	Next(runnable []*QueuedTask) int
	// Finished informs the policy that a task completed after the given
	// runtime, so stateful policies (fairshare) can account usage.
	Finished(t *QueuedTask, runtime time.Duration)
}

// QueuedTask is a pending queue entry visible to policies.
type QueuedTask struct {
	Task     Task
	Enqueued time.Time

	h    *resultHandle
	ctx  context.Context
	stop func() bool // unregisters the context watch

	// Guarded by the queue's mu.
	inner     Handle // the executor's handle once the task has started
	cancelled bool   // Cancel arrived after dispatch
}

// Machine is a Condor-style resource advertisement: a named machine with
// attributes (the ClassAd analog) and a slot count.
type Machine struct {
	Name  string
	Attrs map[string]string
	Slots int
}

// machine is one machine's slot accounting inside a Queue. An unadvertised
// machine (the single machine of a PBS or LSF queue) runs any task; an
// advertised one only tasks whose Requirements its Attrs match exactly.
type machine struct {
	Machine
	advertised bool
	busy       int // guarded by the queue's mu
}

func (m *machine) accepts(t *Task) bool {
	if !m.advertised {
		return true
	}
	for k, want := range t.Requirements {
		if m.Attrs[k] != want {
			return false
		}
	}
	return true
}

// SaturatedError reports a submission refused because the scheduler's
// backlog is full. It is backpressure, not failure: the gatekeeper maps it
// to a pre-execution REJECT frame carrying RetryAfter, so clients back off
// instead of piling more work onto a queue that cannot drain.
type SaturatedError struct {
	// Backend names the saturated scheduler.
	Backend string
	// Depth is the pending backlog observed at refusal.
	Depth int
	// RetryAfter estimates when a slot is likely to free up.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *SaturatedError) Error() string {
	return fmt.Sprintf("scheduler: %s: backlog saturated (%d pending, retry after %s)",
		e.Backend, e.Depth, e.RetryAfter)
}

// QueueLimits configures one named sub-queue of a batch system.
type QueueLimits struct {
	// MaxWallTime rejects tasks whose EstRuntime exceeds it; 0 means
	// unlimited (like a PBS queue's resources_max.walltime).
	MaxWallTime time.Duration
}

// QueueConfig configures a Queue backend.
type QueueConfig struct {
	// Name is the backend name reported to clients ("pbs", "lsf").
	Name string
	// Slots is the number of concurrently executing tasks; defaults to 1.
	Slots int
	// Policy orders pending tasks; defaults to FIFO.
	Policy Policy
	// Queues optionally defines named sub-queues with limits. When
	// non-empty, tasks must name an existing queue (an empty task queue
	// maps to "default" if defined).
	Queues map[string]QueueLimits
	// MaxPending bounds the backlog: a Submit that would push the pending
	// list beyond it fails with a SaturatedError instead of queueing,
	// giving the gatekeeper something to convert into client backpressure.
	// Zero keeps the backlog unbounded.
	MaxPending int
	// Executor runs dispatched tasks; defaults to a Fork backend.
	Executor Backend
	// DepthGauge optionally mirrors the pending-task count into a
	// telemetry gauge.
	DepthGauge *telemetry.Gauge
	// DispatchLatency records queue-wait time (enqueue to dispatch) per
	// task; WaitStats and the saturation retry-after estimate read it. Nil
	// selects a private histogram.
	DispatchLatency *telemetry.Histogram
}

// Queue is the batch-queue engine behind the GRAM backend interface
// (paper §2): PBS, LSF and Condor are configurations of it. Tasks wait in
// a pending list over a set of machines; a dispatcher offers the policy
// the tasks some machine has a free slot for and starts its pick on the
// first such machine. PBS and LSF queues have one unadvertised machine
// that runs any task; a Condor queue matchmakes over advertised machines.
// Queue-wait times are recorded for the E15 experiment.
type Queue struct {
	cfg      QueueConfig // cfg.Slots is the total over machines
	machines []*machine

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*QueuedTask
	closed  bool
}

// NewQueue creates and starts a batch queue backend.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	return newQueue(cfg, []*machine{{Machine: Machine{Slots: cfg.Slots}}})
}

// newQueue starts a queue over machines; cfg.Slots becomes their total.
func newQueue(cfg QueueConfig, machines []*machine) *Queue {
	cfg.Slots = 0
	for _, m := range machines {
		cfg.Slots += m.Slots
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	if cfg.Executor == nil {
		cfg.Executor = &Fork{}
	}
	if cfg.Name == "" {
		cfg.Name = "queue"
	}
	if cfg.DispatchLatency == nil {
		cfg.DispatchLatency = &telemetry.Histogram{}
	}
	q := &Queue{cfg: cfg, machines: machines}
	q.cond = sync.NewCond(&q.mu)
	go q.dispatch()
	return q
}

// Name implements Backend.
func (q *Queue) Name() string { return q.cfg.Name }

// WaitStats returns queue-wait statistics across completed dispatches.
func (q *Queue) WaitStats() telemetry.HistogramSnapshot {
	return q.cfg.DispatchLatency.Snapshot()
}

// Depth returns the number of pending (not yet running) tasks.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Close stops the dispatcher; queued tasks fail, running tasks continue.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	pending := q.pending
	q.pending = nil
	q.cfg.DepthGauge.Set(0)
	q.mu.Unlock()
	q.cond.Signal()
	for _, t := range pending {
		t.stop()
		t.h.finish(Result{}, fmt.Errorf("scheduler: %s: queue closed", q.cfg.Name))
	}
}

// Submit implements Backend: the task is validated against queue limits
// and parked until the policy dispatches it. A task whose requirements no
// machine satisfies is rejected now rather than queued forever.
func (q *Queue) Submit(ctx context.Context, t Task) (Handle, error) {
	if len(q.cfg.Queues) > 0 {
		name := t.Queue
		if name == "" {
			name = "default"
		}
		lim, ok := q.cfg.Queues[name]
		if !ok {
			return nil, fmt.Errorf("scheduler: %s: unknown queue %q", q.cfg.Name, name)
		}
		if lim.MaxWallTime > 0 && t.EstRuntime > lim.MaxWallTime {
			return nil, fmt.Errorf("scheduler: %s: queue %q walltime limit %s exceeded by request for %s",
				q.cfg.Name, name, lim.MaxWallTime, t.EstRuntime)
		}
	}
	if !slices.ContainsFunc(q.machines, func(m *machine) bool { return m.accepts(&t) }) {
		return nil, fmt.Errorf("scheduler: %s: no machine satisfies requirements %v", q.cfg.Name, t.Requirements)
	}

	qt := &QueuedTask{Task: t, Enqueued: time.Now(), ctx: ctx}
	qt.h = newResultHandle(func() { q.cancel(qt) })

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, fmt.Errorf("scheduler: %s: queue closed", q.cfg.Name)
	}
	if q.cfg.MaxPending > 0 && len(q.pending) >= q.cfg.MaxPending {
		depth := len(q.pending)
		q.mu.Unlock()
		return nil, &SaturatedError{
			Backend:    q.cfg.Name,
			Depth:      depth,
			RetryAfter: q.drainEstimate(depth),
		}
	}
	q.pending = append(q.pending, qt)
	q.cfg.DepthGauge.Set(int64(len(q.pending)))
	qt.stop = context.AfterFunc(ctx, func() { q.cancel(qt) })
	q.mu.Unlock()
	q.cond.Signal()
	return qt.h, nil
}

// drainEstimate guesses how long until the backlog has room again: the
// mean observed queue wait scaled by how many dispatch rounds stand ahead,
// falling back to a modest constant before any dispatch has completed.
// It is a hint for REJECT retry-after, not a promise.
func (q *Queue) drainEstimate(depth int) time.Duration {
	est := q.WaitStats().Mean()
	if est <= 0 {
		est = 100 * time.Millisecond
	}
	est *= time.Duration(1 + depth/q.cfg.Slots)
	if est > 5*time.Second {
		est = 5 * time.Second
	}
	return est
}

// cancel is the one cancellation event, raised by Handle.Cancel or by the
// submitter's context ending: a queued task leaves the pending list and
// fails at once; a running one has its executor handle cancelled.
func (q *Queue) cancel(qt *QueuedTask) {
	q.mu.Lock()
	if q.removeLocked(qt) {
		q.mu.Unlock()
		qt.stop()
		qt.h.finish(Result{}, fmt.Errorf("scheduler: %s: cancelled while queued", q.cfg.Name))
		return
	}
	qt.cancelled = true
	inner := qt.inner
	q.mu.Unlock()
	if inner != nil {
		inner.Cancel()
	}
}

// removeLocked takes qt off the pending list, reporting whether it was
// there. Caller holds q.mu.
func (q *Queue) removeLocked(qt *QueuedTask) bool {
	i := slices.Index(q.pending, qt)
	if i < 0 {
		return false
	}
	q.pending = slices.Delete(q.pending, i, i+1)
	q.cfg.DepthGauge.Set(int64(len(q.pending)))
	return true
}

// dispatch is the scheduler loop: one goroutine owns slot accounting.
func (q *Queue) dispatch() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed {
		qt, m := q.nextLocked()
		if qt == nil {
			q.cond.Wait()
			continue
		}
		q.removeLocked(qt)
		qt.stop()
		m.busy++
		go q.run(qt, m)
	}
}

// nextLocked builds the runnable set — the pending tasks some machine has
// a free slot for — and returns the policy's pick with the first machine
// that can run it, or nil when nothing can start. Under FIFO this is
// first-fit in arrival order: a task no free machine matches never holds
// up a later one. Caller holds q.mu.
func (q *Queue) nextLocked() (*QueuedTask, *machine) {
	if !slices.ContainsFunc(q.machines, func(m *machine) bool { return m.busy < m.Slots }) {
		return nil, nil
	}
	var runnable []*QueuedTask
	for _, t := range q.pending {
		if q.freeMachineLocked(t) != nil {
			runnable = append(runnable, t)
		}
	}
	if len(runnable) == 0 {
		return nil, nil
	}
	idx := q.cfg.Policy.Next(runnable)
	if idx < 0 || idx >= len(runnable) {
		return nil, nil
	}
	return runnable[idx], q.freeMachineLocked(runnable[idx])
}

// freeMachineLocked returns the first machine with a free slot that
// accepts qt, or nil. Caller holds q.mu.
func (q *Queue) freeMachineLocked(qt *QueuedTask) *machine {
	for _, m := range q.machines {
		if m.busy < m.Slots && m.accepts(&qt.Task) {
			return m
		}
	}
	return nil
}

// run executes one dispatched task on the inner executor and releases its
// machine slot. A traced task records a "scheduler.dispatch" span covering
// the executor run, with the queue wait recorded as an attribute.
func (q *Queue) run(qt *QueuedTask, m *machine) {
	wait := time.Since(qt.Enqueued)
	q.cfg.DispatchLatency.Observe(wait)
	start := time.Now()

	ctx, sp := telemetry.StartSpan(qt.ctx, "scheduler.dispatch")
	sp.SetAttr("queue", q.cfg.Name)
	sp.SetAttr("wait_us", strconv.FormatInt(wait.Microseconds(), 10))

	var res Result
	inner, err := q.start(ctx, qt)
	if err == nil {
		res, err = inner.Wait(ctx)
	}
	res.QueueWait = wait
	res.Machine = m.Name
	runtime := time.Since(start)
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()

	q.mu.Lock()
	m.busy--
	q.cfg.Policy.Finished(qt, runtime)
	q.mu.Unlock()
	q.cond.Signal()

	if err != nil {
		qt.h.finish(res, fmt.Errorf("scheduler: %s: %w", q.cfg.Name, err))
		return
	}
	qt.h.finish(res, nil)
}

// start hands a dispatched task to the executor and publishes the
// executor's handle, so a later Cancel reaches it; a Cancel that arrived
// since dispatch applies now.
func (q *Queue) start(ctx context.Context, qt *QueuedTask) (Handle, error) {
	if _, err := faultinject.Eval(ctx, faultinject.SchedulerDispatch); err != nil {
		return nil, err
	}
	inner, err := q.cfg.Executor.Submit(ctx, qt.Task)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	qt.inner = inner
	cancelled := qt.cancelled
	q.mu.Unlock()
	if cancelled {
		inner.Cancel()
	}
	return inner, nil
}
