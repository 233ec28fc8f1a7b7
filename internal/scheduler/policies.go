package scheduler

import (
	"sync"
	"time"
)

// FIFO dispatches strictly in arrival order — the default behaviour of a
// PBS execution queue.
type FIFO struct{}

// Next implements Policy.
func (FIFO) Next(pending []*QueuedTask) int {
	if len(pending) == 0 {
		return -1
	}
	return 0
}

// Finished implements Policy.
func (FIFO) Finished(*QueuedTask, time.Duration) {}

// PriorityPolicy dispatches the highest-priority pending task, arrival
// order breaking ties — LSF-style static priority scheduling.
type PriorityPolicy struct{}

// Next implements Policy.
func (PriorityPolicy) Next(pending []*QueuedTask) int {
	best := -1
	for i, t := range pending {
		if best < 0 || t.Task.Priority > pending[best].Task.Priority {
			best = i
		}
	}
	return best
}

// Finished implements Policy.
func (PriorityPolicy) Finished(*QueuedTask, time.Duration) {}

// Fairshare dispatches the pending task whose owner has consumed the least
// runtime so far, with static priority breaking ties — the dynamic
// user-share scheduling LSF performs. Usage decays multiplicatively each
// dispatch so past consumption matters less over time.
type Fairshare struct {
	// Decay is the multiplicative usage decay applied on every dispatch
	// decision; 1 disables decay, values in (0,1) forget history. A zero
	// value means the default of 0.99.
	Decay float64

	mu    sync.Mutex
	usage map[string]float64 // owner -> decayed runtime seconds
}

func (f *Fairshare) decay() float64 {
	if f.Decay == 0 {
		return 0.99
	}
	return f.Decay
}

// Next implements Policy.
func (f *Fairshare) Next(pending []*QueuedTask) int {
	if len(pending) == 0 {
		return -1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.usage == nil {
		f.usage = make(map[string]float64)
	}
	d := f.decay()
	for owner := range f.usage {
		f.usage[owner] *= d
	}
	best := -1
	for i, t := range pending {
		if best < 0 {
			best = i
			continue
		}
		ui, ub := f.usage[t.Task.Owner], f.usage[pending[best].Task.Owner]
		switch {
		case ui < ub:
			best = i
		case ui == ub && t.Task.Priority > pending[best].Task.Priority:
			best = i
		}
	}
	return best
}

// Finished implements Policy by charging the owner's share.
func (f *Fairshare) Finished(t *QueuedTask, runtime time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.usage == nil {
		f.usage = make(map[string]float64)
	}
	f.usage[t.Task.Owner] += runtime.Seconds()
}

// Usage returns the decayed usage recorded for owner.
func (f *Fairshare) Usage(owner string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.usage[owner]
}

// NewPBS builds a PBS-style backend: FIFO dispatch over named queues with
// walltime limits.
func NewPBS(slots int, queues map[string]QueueLimits, exec Backend) *Queue {
	return NewQueue(QueueConfig{
		Name:     "pbs",
		Slots:    slots,
		Policy:   FIFO{},
		Queues:   queues,
		Executor: exec,
	})
}

// NewCondor builds a Condor-style matchmaking backend over the given machine
// advertisements: a task runs on the first machine with a free slot whose
// attributes satisfy all of its Requirements, in arrival order. exec runs
// matched tasks (defaults to Fork).
func NewCondor(machines []Machine, exec Backend) *Queue {
	ms := make([]*machine, len(machines))
	for i, m := range machines {
		if m.Slots <= 0 {
			m.Slots = 1
		}
		ms[i] = &machine{Machine: m, advertised: true}
	}
	return newQueue(QueueConfig{Name: "condor", Executor: exec}, ms)
}

// NewLSF builds an LSF-style backend: fairshare dispatch with priority
// tie-breaking.
func NewLSF(slots int, exec Backend) *Queue {
	return NewQueue(QueueConfig{
		Name:     "lsf",
		Slots:    slots,
		Policy:   &Fairshare{},
		Executor: exec,
	})
}
