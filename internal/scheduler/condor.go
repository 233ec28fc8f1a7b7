package scheduler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"infogram/internal/telemetry"
)

// Machine is a Condor-style resource advertisement: a named machine with
// attributes (the ClassAd analog) and a slot count.
type Machine struct {
	Name  string
	Attrs map[string]string
	Slots int
}

// Condor is a matchmaking backend: pending tasks are matched against
// machine advertisements; a task runs on the first machine satisfying all
// of its Requirements with a free slot. This models the Condor scheduler
// interface GRAM exposes (paper §2) closely enough to exercise
// requirement-driven placement.
type Condor struct {
	executor Backend
	waits    telemetry.Histogram

	mu       sync.Mutex
	cond     *sync.Cond
	machines []*machineState
	pending  []*QueuedTask
	closed   bool
}

type machineState struct {
	m    Machine
	busy int
}

// NewCondor creates a matchmaker over the given machines; exec runs
// matched tasks (defaults to Fork).
func NewCondor(machines []Machine, exec Backend) *Condor {
	if exec == nil {
		exec = &Fork{}
	}
	c := &Condor{executor: exec}
	c.cond = sync.NewCond(&c.mu)
	for _, m := range machines {
		if m.Slots <= 0 {
			m.Slots = 1
		}
		c.machines = append(c.machines, &machineState{m: m})
	}
	go c.matchLoop()
	return c
}

// Name implements Backend.
func (*Condor) Name() string { return "condor" }

// WaitStats returns matchmaking-wait statistics.
func (c *Condor) WaitStats() telemetry.HistogramSnapshot { return c.waits.Snapshot() }

// Depth returns the number of unmatched tasks.
func (c *Condor) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close stops the matchmaker; unmatched tasks fail.
func (c *Condor) Close() {
	c.mu.Lock()
	c.closed = true
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.cond.Broadcast()
	for _, t := range pending {
		t.h.finish(Result{}, fmt.Errorf("scheduler: condor: matchmaker closed"))
	}
}

// Submit implements Backend. A task whose requirements can never be
// satisfied by any advertised machine is rejected immediately rather than
// queued forever.
func (c *Condor) Submit(ctx context.Context, t Task) (Handle, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("scheduler: condor: matchmaker closed")
	}
	satisfiable := false
	for _, ms := range c.machines {
		if matches(t.Requirements, ms.m.Attrs) {
			satisfiable = true
			break
		}
	}
	if !satisfiable {
		c.mu.Unlock()
		return nil, fmt.Errorf("scheduler: condor: no machine satisfies requirements %v", t.Requirements)
	}
	qt := &QueuedTask{
		Task:      t,
		Enqueued:  time.Now(),
		ctx:       ctx,
		cancelled: make(chan struct{}),
	}
	qt.h = newResultHandle(qt.cancel)
	c.pending = append(c.pending, qt)
	c.mu.Unlock()
	c.cond.Signal()
	return qt.h, nil
}

// matches reports whether attrs satisfy every requirement exactly.
func matches(reqs, attrs map[string]string) bool {
	for k, want := range reqs {
		if attrs[k] != want {
			return false
		}
	}
	return true
}

// matchLoop pairs pending tasks with free machines, first-fit in arrival
// order.
func (c *Condor) matchLoop() {
	for {
		c.mu.Lock()
		var qt *QueuedTask
		var ms *machineState
		for !c.closed {
			qt, ms = c.findMatch()
			if qt != nil {
				break
			}
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		ms.busy++
		c.mu.Unlock()
		go c.run(qt, ms)
	}
}

// findMatch scans pending tasks in order for one a free machine can serve,
// dropping cancelled entries as it goes. Caller holds c.mu.
func (c *Condor) findMatch() (*QueuedTask, *machineState) {
	alive := c.pending[:0]
	var matchedTask *QueuedTask
	var matchedMachine *machineState
	for i, t := range c.pending {
		cancelled := false
		select {
		case <-t.cancelled:
			cancelled = true
		default:
			select {
			case <-t.ctx.Done():
				cancelled = true
			default:
			}
		}
		if cancelled {
			go t.h.finish(Result{}, fmt.Errorf("scheduler: condor: cancelled while queued"))
			continue
		}
		if matchedTask == nil {
			for _, ms := range c.machines {
				if ms.busy < ms.m.Slots && matches(t.Task.Requirements, ms.m.Attrs) {
					matchedTask, matchedMachine = t, ms
					break
				}
			}
			if matchedTask == t {
				// Keep the rest of the queue intact.
				alive = append(alive, c.pending[i+1:]...)
				c.pending = alive
				return matchedTask, matchedMachine
			}
		}
		alive = append(alive, t)
	}
	c.pending = alive
	return nil, nil
}

// run executes a matched task and releases the machine slot.
func (c *Condor) run(qt *QueuedTask, ms *machineState) {
	wait := time.Since(qt.Enqueued)
	c.waits.Observe(wait)

	inner, err := c.executor.Submit(qt.ctx, qt.Task)
	var res Result
	if err == nil {
		done := make(chan struct{})
		go func() {
			select {
			case <-qt.cancelled:
				inner.Cancel()
			case <-done:
			}
		}()
		res, err = inner.Wait(qt.ctx)
		close(done)
	}
	res.QueueWait = wait
	res.Machine = ms.m.Name

	c.mu.Lock()
	ms.busy--
	c.mu.Unlock()
	c.cond.Broadcast()

	if err != nil {
		qt.h.finish(res, fmt.Errorf("scheduler: condor: %w", err))
		return
	}
	qt.h.finish(res, nil)
}
