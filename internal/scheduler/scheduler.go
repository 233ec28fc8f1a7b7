// Package scheduler implements the backend tier of Figure 1/3: the local
// job execution systems a job manager hands work to. The paper requires
// the backend to be "easily portable to various scheduling systems" with
// interfaces for PBS, LSF, Condor, and Unix process fork (§2), plus the
// J-GRAM extension of executing code inside the service process itself —
// the jar-in-the-JVM model (§7) — with a trusted and a restricted
// (sandboxed) mode.
//
// Backends provided:
//
//   - Fork: real process execution via os/exec (the GRAM fork scheduler).
//   - Func: in-process execution of registered functions (the jar analog),
//     with TrustedMode/RestrictedMode sandboxing.
//   - Queue: a slot-limited batch queue with pluggable ordering policies
//     emulating PBS (FIFO), LSF (priority + fairshare), and a Condor-style
//     matchmaker over machine advertisements.
package scheduler

import (
	"context"
	"time"
)

// Task is one unit of work handed to a backend.
type Task struct {
	// Executable is the program path (Fork/Queue) or registered function
	// name (Func).
	Executable string
	Args       []string
	Dir        string
	Env        map[string]string
	Stdin      string
	// Owner is the local account the task runs as (from the gridmap).
	Owner string
	// Priority orders tasks in priority-based queues; higher runs first.
	Priority int
	// Queue names the target batch queue, where applicable.
	Queue string
	// Requirements are matchmaking constraints for Condor-style backends:
	// every key must match the machine advertisement exactly. Queues
	// without advertised machines (PBS, LSF) ignore them.
	Requirements map[string]string
	// EstRuntime is the declared runtime hint used by queue policies that
	// enforce per-queue walltime limits.
	EstRuntime time.Duration
	// Checkpoint is the most recent checkpoint blob of a restarted job;
	// in-process jobs read it through Sandbox.Restored, forked processes
	// through the INFOGRAM_CHECKPOINT environment variable.
	Checkpoint string
	// OnCheckpoint, when set, receives checkpoint blobs the task emits
	// during execution (Sandbox.Checkpoint); the job manager persists
	// them to the log for restart recovery (paper §10).
	OnCheckpoint func(data string)
}

// Result is the outcome of a completed task.
type Result struct {
	ExitCode   int
	Stdout     string
	Stderr     string
	StartedAt  time.Time
	FinishedAt time.Time
	// QueueWait is the time between submission and execution start; queue
	// backends report their scheduling delay here.
	QueueWait time.Duration
	// Machine names the execution machine for matchmade backends.
	Machine string
}

// Handle tracks one submitted task.
type Handle interface {
	// Wait blocks until the task finishes or ctx is cancelled. A task
	// that ran and exited non-zero returns a Result with the exit code
	// and a nil error; err is reserved for failures to execute at all or
	// cancellation.
	Wait(ctx context.Context) (Result, error)
	// Cancel stops the task if it is queued or running. Safe to call
	// multiple times and after completion.
	Cancel()
}

// Suspender is optionally implemented by handles whose tasks can be
// paused and resumed (the fork backend uses SIGSTOP/SIGCONT); it backs the
// GRAM SUSPENDED job state.
type Suspender interface {
	Suspend() error
	Resume() error
}

// Backend is a local scheduling system.
type Backend interface {
	// Name identifies the backend ("fork", "func", "pbs", "lsf",
	// "condor").
	Name() string
	// Submit hands a task to the backend. Submission is asynchronous:
	// errors occurring during execution surface from Handle.Wait.
	Submit(ctx context.Context, t Task) (Handle, error)
}

// resultHandle is a Handle over a completion channel, shared by the
// backend implementations.
type resultHandle struct {
	done   chan struct{} // closed when result/err are set
	cancel context.CancelFunc
	res    Result
	err    error
}

func newResultHandle(cancel context.CancelFunc) *resultHandle {
	if cancel == nil {
		cancel = func() {}
	}
	return &resultHandle{done: make(chan struct{}), cancel: cancel}
}

// finish records the outcome exactly once.
func (h *resultHandle) finish(res Result, err error) {
	h.res, h.err = res, err
	close(h.done)
}

// Wait implements Handle.
func (h *resultHandle) Wait(ctx context.Context) (Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Cancel implements Handle.
func (h *resultHandle) Cancel() { h.cancel() }
