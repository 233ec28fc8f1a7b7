package scheduler

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// JobFunc is an in-process job: the Go analog of a Java application
// submitted as a jar and executed inside the service's JVM (paper §7,
// "(executable=myjavaapplication.jar)"). The function receives a Sandbox
// whose budgets are enforced in restricted mode; well-behaved jobs call
// sb.Step and sb.Alloc as they work.
type JobFunc func(ctx context.Context, sb *Sandbox, args []string, stdin string) (stdout string, err error)

// ExecMode selects how in-process jobs run, the administrator's choice the
// paper describes: "one method is to execute the code in the same JVM ...
// An alternative is to separate the execution of the job ... to increase
// security. We provide the ability to configure the job manager to run in
// either of these modes."
type ExecMode int

// Execution modes for the Func backend.
const (
	// TrustedMode runs the function with unlimited budgets, like
	// executing a trusted jar in the service JVM.
	TrustedMode ExecMode = iota
	// RestrictedMode enforces the sandbox budgets (steps, allocation,
	// wall time) and converts panics into job failures, like running an
	// untrusted jar in a separate restricted JVM.
	RestrictedMode
)

// String renders the mode.
func (m ExecMode) String() string {
	if m == RestrictedMode {
		return "restricted"
	}
	return "trusted"
}

// Budgets bounds a restricted job.
type Budgets struct {
	// Steps is the cooperative CPU budget: the job fails once it has
	// called Sandbox.Step more than this many times. 0 means unlimited.
	Steps int64
	// AllocBytes bounds the bytes the job may account via Sandbox.Alloc.
	// 0 means unlimited.
	AllocBytes int64
	// WallTime bounds total runtime. 0 means unlimited.
	WallTime time.Duration
}

// DefaultBudgets are the restricted-mode defaults.
var DefaultBudgets = Budgets{
	Steps:      10_000_000,
	AllocBytes: 64 << 20,
	WallTime:   30 * time.Second,
}

// BudgetError reports a sandbox budget violation.
type BudgetError struct {
	Resource string
	Limit    int64
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("scheduler: sandbox %s budget exceeded (limit %d)", e.Resource, e.Limit)
}

// Sandbox is the capability handed to an in-process job. In trusted mode
// its budget checks are no-ops; in restricted mode they terminate the job
// with a BudgetError.
type Sandbox struct {
	mode     ExecMode
	budgets  Budgets
	steps    atomic.Int64
	alloc    atomic.Int64
	out      strings.Builder
	outMu    sync.Mutex
	restored string
	onCkpt   func(string)
}

// Mode returns the execution mode of the job.
func (sb *Sandbox) Mode() ExecMode { return sb.mode }

// Step accounts one unit of work and returns a BudgetError once the step
// budget is exhausted in restricted mode.
func (sb *Sandbox) Step() error {
	n := sb.steps.Add(1)
	if sb.mode == RestrictedMode && sb.budgets.Steps > 0 && n > sb.budgets.Steps {
		return &BudgetError{Resource: "step", Limit: sb.budgets.Steps}
	}
	return nil
}

// StepN accounts n units of work at once.
func (sb *Sandbox) StepN(n int64) error {
	total := sb.steps.Add(n)
	if sb.mode == RestrictedMode && sb.budgets.Steps > 0 && total > sb.budgets.Steps {
		return &BudgetError{Resource: "step", Limit: sb.budgets.Steps}
	}
	return nil
}

// Alloc accounts n bytes of allocation.
func (sb *Sandbox) Alloc(n int64) error {
	total := sb.alloc.Add(n)
	if sb.mode == RestrictedMode && sb.budgets.AllocBytes > 0 && total > sb.budgets.AllocBytes {
		return &BudgetError{Resource: "memory", Limit: sb.budgets.AllocBytes}
	}
	return nil
}

// Steps returns the accounted work units.
func (sb *Sandbox) Steps() int64 { return sb.steps.Load() }

// Printf appends formatted text to the job's stdout.
func (sb *Sandbox) Printf(format string, args ...any) {
	sb.outMu.Lock()
	fmt.Fprintf(&sb.out, format, args...)
	sb.outMu.Unlock()
}

// Restored returns the checkpoint blob a restarted job resumes from, or ""
// on a fresh start.
func (sb *Sandbox) Restored() string { return sb.restored }

// Checkpoint emits a checkpoint blob; the job manager persists it so a
// restarted service can resume the job from here (paper §10: "automatic
// restart capabilities enabled through checkpointing").
func (sb *Sandbox) Checkpoint(data string) {
	if sb.onCkpt != nil {
		sb.onCkpt(data)
	}
}

// Func executes registered functions in-process.
type Func struct {
	mode    ExecMode
	budgets Budgets

	mu    sync.RWMutex
	funcs map[string]JobFunc
}

// NewFunc creates a Func backend in the given mode; budgets apply only in
// RestrictedMode (zero budgets fall back to DefaultBudgets).
func NewFunc(mode ExecMode, budgets Budgets) *Func {
	if budgets == (Budgets{}) {
		budgets = DefaultBudgets
	}
	return &Func{mode: mode, budgets: budgets, funcs: make(map[string]JobFunc)}
}

// Name implements Backend.
func (f *Func) Name() string { return "func" }

// Mode returns the configured execution mode.
func (f *Func) Mode() ExecMode { return f.mode }

// RegisterFunc makes fn submittable under name. Registration replaces any
// previous function of the same name.
func (f *Func) RegisterFunc(name string, fn JobFunc) {
	f.mu.Lock()
	f.funcs[name] = fn
	f.mu.Unlock()
}

// Registered returns the registered function names, sorted.
func (f *Func) Registered() []string {
	f.mu.RLock()
	out := make([]string, 0, len(f.funcs))
	for n := range f.funcs {
		out = append(out, n)
	}
	f.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Submit implements Backend.
func (f *Func) Submit(ctx context.Context, t Task) (Handle, error) {
	f.mu.RLock()
	fn, ok := f.funcs[t.Executable]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scheduler: func: no registered function %q", t.Executable)
	}

	runCtx, cancel := context.WithCancel(ctx)
	if f.mode == RestrictedMode && f.budgets.WallTime > 0 {
		runCtx, cancel = context.WithTimeout(ctx, f.budgets.WallTime)
	}
	h := newResultHandle(cancel)
	sb := &Sandbox{
		mode:     f.mode,
		budgets:  f.budgets,
		restored: t.Checkpoint,
		onCkpt:   t.OnCheckpoint,
	}

	go func() {
		defer cancel()
		start := time.Now()
		stdout, err := runGuarded(runCtx, f.mode, fn, sb, t)
		res := Result{
			Stdout:     stdout,
			StartedAt:  start,
			FinishedAt: time.Now(),
		}
		if err != nil {
			// In-process jobs report failure through the exit code the
			// way a crashed process would, keeping the job-manager
			// contract uniform across backends.
			res.ExitCode = 1
			res.Stderr = err.Error()
		}
		h.finish(res, nil)
	}()
	return h, nil
}

// runGuarded invokes fn, converting panics to errors in restricted mode
// (and in trusted mode too — the service must survive, but the failure is
// labelled as a trusted-code fault).
func runGuarded(ctx context.Context, mode ExecMode, fn JobFunc, sb *Sandbox, t Task) (stdout string, err error) {
	defer func() {
		if r := recover(); r != nil {
			if mode == RestrictedMode {
				err = fmt.Errorf("scheduler: sandboxed job panicked: %v", r)
			} else {
				err = fmt.Errorf("scheduler: trusted job panicked (service fault): %v", r)
			}
			sb.outMu.Lock()
			stdout = sb.out.String()
			sb.outMu.Unlock()
		}
	}()
	out, err := fn(ctx, sb, t.Args, t.Stdin)
	sb.outMu.Lock()
	pre := sb.out.String()
	sb.outMu.Unlock()
	if pre != "" {
		out = pre + out
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("scheduler: job cancelled: %w", ctx.Err())
	}
	return out, err
}
