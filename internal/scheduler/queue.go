package scheduler

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"infogram/internal/faultinject"
	"infogram/internal/telemetry"
)

// Policy orders a batch queue's pending tasks. Implementations pick which
// pending task runs next when a slot frees up.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Next returns the index of the task to dispatch next, or -1 to leave
	// everything queued. pending is in submission order.
	Next(pending []*QueuedTask) int
	// Started informs the policy that pending[idx] began executing, so
	// stateful policies (fairshare) can account usage.
	Started(t *QueuedTask)
	// Finished informs the policy that a task completed after the given
	// runtime.
	Finished(t *QueuedTask, runtime time.Duration)
}

// QueuedTask is a pending queue entry visible to policies.
type QueuedTask struct {
	Task     Task
	Enqueued time.Time

	h         *resultHandle
	ctx       context.Context
	cancelled chan struct{}
	once      sync.Once
}

func (q *QueuedTask) cancel() {
	q.once.Do(func() { close(q.cancelled) })
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

// Queue is a slot-limited batch scheduler: the discrete simulation of a
// PBS- or LSF-class local resource manager behind the GRAM backend
// interface (paper §2). Tasks wait in a pending list; a dispatcher fills
// free slots according to the policy; queue-wait times are recorded for
// the E15 experiment.
type Queue struct {
	cfg QueueConfig

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*QueuedTask
	running int
	closed  bool
}

// NewQueue creates and starts a batch queue backend.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
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
	q := &Queue{cfg: cfg}
	q.cond = sync.NewCond(&q.mu)
	go q.dispatch()
	return q
}

// Name implements Backend.
func (q *Queue) Name() string { return q.cfg.Name }

// PolicyName returns the configured policy's name.
func (q *Queue) PolicyName() string { return q.cfg.Policy.Name() }

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

// syncDepthLocked mirrors the pending count into the telemetry gauge.
// Caller holds q.mu.
func (q *Queue) syncDepthLocked() {
	q.cfg.DepthGauge.Set(int64(len(q.pending)))
}

// Close stops the dispatcher; queued tasks fail, running tasks continue.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	pending := q.pending
	q.pending = nil
	q.syncDepthLocked()
	q.mu.Unlock()
	q.cond.Broadcast()
	for _, t := range pending {
		t.h.finish(Result{}, fmt.Errorf("scheduler: %s: queue closed", q.cfg.Name))
	}
}

// Submit implements Backend: the task is validated against queue limits
// and parked until the policy dispatches it.
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

	qt := &QueuedTask{
		Task:      t,
		Enqueued:  time.Now(),
		ctx:       ctx,
		cancelled: make(chan struct{}),
	}
	qt.h = newResultHandle(qt.cancel)

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
	q.syncDepthLocked()
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

// dispatch is the scheduler loop: one goroutine owns slot accounting.
func (q *Queue) dispatch() {
	for {
		q.mu.Lock()
		for !q.closed && (len(q.pending) == 0 || q.running >= q.cfg.Slots) {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		// Drop cancelled tasks before consulting the policy.
		alive := q.pending[:0]
		var dropped []*QueuedTask
		for _, t := range q.pending {
			select {
			case <-t.cancelled:
				dropped = append(dropped, t)
			default:
				select {
				case <-t.ctx.Done():
					dropped = append(dropped, t)
				default:
					alive = append(alive, t)
				}
			}
		}
		q.pending = alive
		q.syncDepthLocked()
		if len(q.pending) == 0 {
			q.mu.Unlock()
			for _, t := range dropped {
				t.h.finish(Result{}, fmt.Errorf("scheduler: %s: cancelled while queued", q.cfg.Name))
			}
			continue
		}
		idx := q.cfg.Policy.Next(q.pending)
		if idx < 0 || idx >= len(q.pending) {
			q.mu.Unlock()
			for _, t := range dropped {
				t.h.finish(Result{}, fmt.Errorf("scheduler: %s: cancelled while queued", q.cfg.Name))
			}
			continue
		}
		qt := q.pending[idx]
		q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
		q.syncDepthLocked()
		q.running++
		q.cfg.Policy.Started(qt)
		q.mu.Unlock()

		for _, t := range dropped {
			t.h.finish(Result{}, fmt.Errorf("scheduler: %s: cancelled while queued", q.cfg.Name))
		}
		go q.run(qt)
	}
}

// run executes one dispatched task on the inner executor. A traced task
// records a "scheduler.dispatch" span covering the executor run, with
// the queue wait recorded as an attribute.
func (q *Queue) run(qt *QueuedTask) {
	wait := time.Since(qt.Enqueued)
	q.cfg.DispatchLatency.Observe(wait)
	start := time.Now()

	ctx, sp := telemetry.StartSpan(qt.ctx, "scheduler.dispatch")
	sp.SetAttr("queue", q.cfg.Name)
	sp.SetAttr("wait_us", strconv.FormatInt(wait.Microseconds(), 10))

	var res Result
	var inner Handle
	_, err := faultinject.Eval(ctx, faultinject.SchedulerDispatch)
	if err == nil {
		inner, err = q.cfg.Executor.Submit(ctx, qt.Task)
	}
	if err == nil {
		// Honour cancellation while running.
		done := make(chan struct{})
		go func() {
			select {
			case <-qt.cancelled:
				inner.Cancel()
			case <-done:
			}
		}()
		res, err = inner.Wait(ctx)
		close(done)
	}
	res.QueueWait = wait
	runtime := time.Since(start)
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()

	q.mu.Lock()
	q.running--
	q.cfg.Policy.Finished(qt, runtime)
	q.mu.Unlock()
	q.cond.Signal()

	if err != nil {
		qt.h.finish(res, fmt.Errorf("scheduler: %s: %w", q.cfg.Name, err))
		return
	}
	qt.h.finish(res, nil)
}
