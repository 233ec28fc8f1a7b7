// Package gram implements the baseline Globus GRAM service of paper §2 and
// Figure 1 as a pure-Go "J-GRAM" (§7): a gatekeeper that authenticates
// clients through GSI and maps them into a local security context, a job
// manager per submitted job, and a backend tier of pluggable local
// schedulers. The wire protocol (GRAMP) supports submit, status, cancel,
// and client callbacks for state-change notification.
//
// The job-manager core (RunJob) is shared with the InfoGram service, which
// the paper builds by enhancing this architecture (Figure 3).
package gram

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/clock"
	"infogram/internal/faultinject"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/logging"
	"infogram/internal/rsl"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/xrsl"
)

// Backends groups the local schedulers a job manager can dispatch to,
// selected by the jobtype tag: "exec" (fork), "func" (in-process), and
// "queue" (batch system).
type Backends struct {
	Exec  scheduler.Backend
	Func  scheduler.Backend
	Queue scheduler.Backend
}

// Select returns the backend for a jobtype.
func (b Backends) Select(jobType string) (scheduler.Backend, error) {
	switch jobType {
	case "", "exec":
		if b.Exec == nil {
			return nil, fmt.Errorf("gram: no exec backend configured")
		}
		return b.Exec, nil
	case "func":
		if b.Func == nil {
			return nil, fmt.Errorf("gram: no func backend configured")
		}
		return b.Func, nil
	case "queue":
		if b.Queue == nil {
			return nil, fmt.Errorf("gram: no queue backend configured")
		}
		return b.Queue, nil
	}
	return nil, fmt.Errorf("gram: unknown jobtype %q", jobType)
}

// Notifier delivers job events to interested parties (callback contacts).
type Notifier interface {
	Notify(callbackContact string, ev job.Event)
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(callbackContact string, ev job.Event)

// Notify implements Notifier.
func (f NotifierFunc) Notify(c string, ev job.Event) { f(c, ev) }

// ManagerConfig wires a job manager's dependencies.
type ManagerConfig struct {
	// Table is the job table. With a Journal it is ignored: the manager
	// serves the journal's table (see ServedTable).
	Table    *job.Table
	Backends Backends
	// Log is optional; when set, every job event is also written to it as
	// an audit-log line for accounting. It is never read back for recovery.
	Log *logging.Logger
	// Journal is the optional durable job-state layer: every submission
	// and state transition is appended to it, and reaches the table
	// through it, before the operation is acknowledged; a failed
	// submission append refuses the submit. A nil journal preserves the
	// in-memory-only behaviour.
	Journal *journal.Journal
	// Notify is optional; when set, events for jobs carrying a callback
	// contact are pushed to it.
	Notify Notifier
	Clock  clock.Clock
	// SpawnLatency optionally records how long Submit takes to register a
	// job and launch its manager goroutine (telemetry span "gram-submit").
	SpawnLatency *telemetry.Histogram
	// JobsSpawned optionally counts manager goroutines launched.
	JobsSpawned *telemetry.Counter
	// MaxBacklog, when positive, refuses a submission up front if the
	// selected backend already reports at least this many pending tasks.
	// Without it a saturated queue would still accept the job, spawn its
	// manager goroutine, journal it, and only then park it behind an
	// unbounded backlog — admission control wants the refusal before any
	// of that work is done, so it can be turned into a cheap REJECT.
	MaxBacklog int
}

// Manager executes jobs: one manager goroutine per submission, mirroring
// GRAM's per-job job-manager processes.
type Manager struct {
	cfg ManagerConfig

	mu      sync.Mutex
	cancels map[string]context.CancelFunc
	// running tracks the live backend handles of each job's current
	// attempt so Signal can reach them.
	running map[string][]scheduler.Handle
	// recovered is set by RecoverJournal, which may run once.
	recovered atomic.Bool
}

// NewManager builds a Manager.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Journal != nil {
		cfg.Table = cfg.Journal.Table()
	}
	return &Manager{
		cfg:     cfg,
		cancels: make(map[string]context.CancelFunc),
		running: make(map[string][]scheduler.Handle),
	}
}

// Table returns the job table.
func (m *Manager) Table() *job.Table { return m.cfg.Table }

// ServedTable returns the job table a service bound to host serves: the
// journal's, which already holds every job the journal replayed, or a
// fresh one when there is no journal.
func ServedTable(jnl *journal.Journal, host string) *job.Table {
	t := jnl.Table()
	if t == nil {
		return job.NewTable(host)
	}
	t.Bind(host)
	return t
}

// Submit registers a job and starts its manager goroutine, returning the
// job contact. rec.Contact may be empty, in which case a fresh contact is
// allocated. A traced submission records a "gram.spawn" span covering
// registration through goroutine launch; the job's later spans
// (scheduler dispatch, state-transition journal appends) parent under it
// even though they finish after the submit acknowledges.
func (m *Manager) Submit(ctx context.Context, req *xrsl.JobRequest, rec job.Record) (string, error) {
	ctx, sp := telemetry.StartSpan(ctx, "gram.spawn")
	contact, err := m.submit(ctx, req, rec)
	if err != nil {
		sp.Fail(err.Error())
	} else {
		sp.SetAttr("contact", contact)
	}
	sp.End()
	return contact, err
}

func (m *Manager) submit(ctx context.Context, req *xrsl.JobRequest, rec job.Record) (string, error) {
	if _, err := faultinject.Eval(ctx, faultinject.GramSpawn); err != nil {
		return "", fmt.Errorf("gram: spawn: %w", err)
	}
	// Backend selection proper happens asynchronously in the job's run
	// goroutine, but the backlog gate must decide *now*, before the job is
	// registered and journaled. Peek at the backend the jobtype will route
	// to; selection errors are deliberately ignored here so they surface
	// through the normal run path with full state accounting.
	if m.cfg.MaxBacklog > 0 {
		if backend, err := m.cfg.Backends.Select(req.JobType); err == nil {
			if d, ok := backend.(interface{ Depth() int }); ok {
				if depth := d.Depth(); depth >= m.cfg.MaxBacklog {
					return "", &scheduler.SaturatedError{
						Backend:    backend.Name(),
						Depth:      depth,
						RetryAfter: time.Duration(1+depth/m.cfg.MaxBacklog) * time.Second,
					}
				}
			}
		}
	}
	now := m.cfg.Clock.Now()
	if rec.Contact == "" {
		rec.Contact = m.cfg.Table.NewContact(now)
	} else if _, err := m.cfg.Table.Get(rec.Contact); err == nil {
		return "", fmt.Errorf("job: duplicate contact %q", rec.Contact)
	}
	// The submission is journaled before anything acknowledges it, and the
	// job enters the table only once its record is written: if the
	// durability layer refuses the record, the client sees the submission
	// fail and no table, snapshot or replication cut ever held the job —
	// an unjournaled job could silently vanish in a crash, which is
	// exactly what the journal exists to prevent.
	if err := m.record(ctx, job.Entry{
		Kind:     job.KindSubmit,
		Time:     now.UnixNano(),
		Contact:  rec.Contact,
		Spec:     rec.Spec,
		Owner:    rec.Owner,
		Identity: rec.Identity,
	}); err != nil {
		return "", fmt.Errorf("gram: submit not durable: %w", err)
	}
	if err := m.transition(ctx, req, job.Entry{Contact: rec.Contact, State: job.Pending.String()}); err != nil {
		return "", err
	}
	m.launch(ctx, rec.Contact, req, 0)
	m.cfg.SpawnLatency.Observe(m.cfg.Clock.Now().Sub(now))
	return rec.Contact, nil
}

// launch starts the manager goroutine of contact's job at attempt start.
// The job context deliberately detaches from the request context: the job
// outlives the request that submitted it, whose context the session
// reuses. The trace and the spawn span are copied over so the job's later
// spans stay correlatable and parent under the submit that launched them.
func (m *Manager) launch(ctx context.Context, contact string, req *xrsl.JobRequest, start int) {
	jobCtx, cancel := telemetry.Detach(ctx)
	m.mu.Lock()
	m.cancels[contact] = cancel
	m.mu.Unlock()
	go func() {
		defer func() {
			cancel()
			m.mu.Lock()
			delete(m.cancels, contact)
			m.mu.Unlock()
		}()
		m.run(jobCtx, contact, req, start)
	}()
	m.cfg.JobsSpawned.Inc()
}

// Cancel requests cancellation of a running or pending job, the GRAMP
// cancel operation a client issues through the job handle (paper §2).
func (m *Manager) Cancel(contact string) error {
	rec, err := m.cfg.Table.Get(contact)
	if err != nil {
		return err
	}
	if rec.State.Terminal() {
		return fmt.Errorf("gram: job %q already %s", contact, rec.State)
	}
	m.mu.Lock()
	cancel, ok := m.cancels[contact]
	m.mu.Unlock()
	if ok {
		cancel()
	}
	return nil
}

// transition files one state change: e, stamped now as a state record,
// changes the table, through the journal when there is one, and that same
// record goes to the audit log; the event goes to the callback. The record
// is written before the callback so an event is never observable outside
// the process ahead of its durable record. A state record always carries
// the job's restart count: the table refuses one below it.
func (m *Manager) transition(ctx context.Context, req *xrsl.JobRequest, e job.Entry) error {
	return m.change(ctx, req, e, false)
}

// change is transition, or with resume the PENDING with which recovery
// re-queues an unfinished job (see job.Table.Resume).
func (m *Manager) change(ctx context.Context, req *xrsl.JobRequest, e job.Entry, resume bool) error {
	e.Kind, e.Time = job.KindState, m.cfg.Clock.Now().UnixNano()
	var ev job.Event
	var err error
	switch {
	case m.cfg.Journal == nil && resume:
		ev, err = m.cfg.Table.Resume(e)
	case m.cfg.Journal == nil:
		ev, err = m.cfg.Table.Transition(e)
	case resume:
		ev, err = m.cfg.Journal.Resume(ctx, e)
	default:
		ev, err = m.cfg.Journal.Transition(ctx, e)
	}
	if err != nil {
		return err
	}
	m.audit(ctx, e)
	if m.cfg.Notify != nil && req != nil && req.CallbackContact != "" {
		m.cfg.Notify.Notify(req.CallbackContact, ev)
	}
	return nil
}

// record files a submission or a checkpoint: it folds e into the table,
// through the journal when there is one, and hands it to the audit log.
// A journal failure is returned; a submission that fails is not logged,
// as it never happened.
func (m *Manager) record(ctx context.Context, e job.Entry) error {
	var err error
	if m.cfg.Journal != nil {
		err = m.cfg.Journal.Append(ctx, e)
	} else {
		m.cfg.Table.Apply(e)
	}
	if err == nil || e.Kind != job.KindSubmit {
		m.audit(ctx, e)
	}
	return err
}

// audit hands e to the audit log, when there is one, with the trace it
// was made under; logging failures must not break job flow.
func (m *Manager) audit(ctx context.Context, e job.Entry) {
	if m.cfg.Log != nil {
		_ = m.cfg.Log.AppendEntry(e, string(telemetry.TraceFrom(ctx)))
	}
}

// run is the per-job manager: it executes the job with fault-tolerant
// restarts (paper §6.1) and timeout actions (§6.5 Extensions), starting at
// attempt start: 0 for fresh submissions, the journaled restart count for
// jobs resumed by crash recovery — the interrupted attempt is re-run and
// only the remaining restart budget is consumed.
func (m *Manager) run(ctx context.Context, contact string, req *xrsl.JobRequest, start int) {
	backend, err := m.cfg.Backends.Select(req.JobType)
	if err != nil {
		m.fail(ctx, contact, req, scheduler.Result{}, -1, err.Error(), start, false)
		return
	}

	attempts := req.Restart + 1
	for attempt := start; attempt < attempts; attempt++ {
		if attempt > start {
			// Fault-tolerant restart: FAILED -> PENDING with the restart
			// counter bumped.
			if err := m.transition(ctx, req, job.Entry{Contact: contact, State: job.Pending.String(), Restarts: attempt}); err != nil {
				return
			}
		}
		// ACTIVE means signalable: the transition is published only once
		// the attempt's backend handles are registered, so a client that
		// reacts to ACTIVE with SIGNAL or CANCEL always finds them.
		var activeErr error
		res, runErr := m.attempt(ctx, backend, contact, req, func() error {
			activeErr = m.transition(ctx, req, job.Entry{Contact: contact, State: job.Active.String(), Restarts: attempt})
			return activeErr
		})
		if activeErr != nil {
			return
		}
		if ctx.Err() != nil {
			// Cancelled: no restart, report the cancellation.
			m.fail(ctx, contact, req, res, -1, "cancelled: "+ctx.Err().Error(), attempt, false)
			return
		}
		switch {
		case runErr == nil && res.ExitCode == 0:
			exit := 0
			_ = m.transition(ctx, req, job.Entry{
				Contact:  contact,
				State:    job.Done.String(),
				ExitCode: &exit,
				Stdout:   &res.Stdout,
				Stderr:   &res.Stderr,
				Restarts: attempt,
			})
			return
		case runErr == nil:
			if attempt == attempts-1 {
				m.fail(ctx, contact, req, res, res.ExitCode,
					fmt.Sprintf("exit code %d", res.ExitCode), attempt, false)
				return
			}
			m.fail(ctx, contact, req, res, res.ExitCode, fmt.Sprintf("exit code %d (will restart)", res.ExitCode), attempt, true)
		default:
			if attempt == attempts-1 {
				m.fail(ctx, contact, req, res, -1, runErr.Error(), attempt, false)
				return
			}
			m.fail(ctx, contact, req, res, -1, runErr.Error()+" (will restart)", attempt, true)
		}
	}
}

// attempt runs one execution attempt, expanding count and applying the
// timeout/action extension. A traced attempt records a "scheduler.run"
// span naming the backend. activate publishes the ACTIVE transition; it
// runs after the handles are registered and before they are waited on.
func (m *Manager) attempt(ctx context.Context, backend scheduler.Backend, contact string, req *xrsl.JobRequest, activate func() error) (scheduler.Result, error) {
	ctx, sp := telemetry.StartSpan(ctx, "scheduler.run")
	sp.SetAttr("backend", backend.Name())
	res, err := m.attemptRun(ctx, backend, contact, req, activate)
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()
	return res, err
}

func (m *Manager) attemptRun(ctx context.Context, backend scheduler.Backend, contact string, req *xrsl.JobRequest, activate func() error) (scheduler.Result, error) {
	runCtx := ctx
	var cancel context.CancelFunc
	if req.MaxWallTime > 0 {
		runCtx, cancel = context.WithTimeout(ctx, req.MaxWallTime)
		defer cancel()
	}

	task := scheduler.Task{
		Executable: req.Executable,
		Args:       req.Arguments,
		Dir:        req.Directory,
		Env:        req.Environment,
		Stdin:      req.Stdin,
		Queue:      req.Queue,
		EstRuntime: req.MaxWallTime,
		Checkpoint: req.Checkpoint,
		OnCheckpoint: func(data string) {
			// Checkpoints feed the journal, the log, and the in-memory
			// request so a later retry (or a restarted service) resumes
			// from here.
			req.Checkpoint = data
			_ = m.record(ctx, job.Entry{
				Kind:       job.KindCheckpoint,
				Time:       m.cfg.Clock.Now().UnixNano(),
				Contact:    contact,
				Checkpoint: data,
			})
		},
	}

	handles := make([]scheduler.Handle, 0, req.Count)
	for i := 0; i < req.Count; i++ {
		h, err := backend.Submit(runCtx, task)
		if err != nil {
			for _, prev := range handles {
				prev.Cancel()
			}
			return scheduler.Result{}, err
		}
		handles = append(handles, h)
	}
	m.mu.Lock()
	m.running[contact] = handles
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.running, contact)
		m.mu.Unlock()
	}()
	if err := activate(); err != nil {
		for _, h := range handles {
			h.Cancel()
		}
		return scheduler.Result{}, err
	}

	if req.Timeout > 0 {
		return m.waitWithTimeout(runCtx, handles, req)
	}
	return waitAll(runCtx, handles)
}

// Signal delivers a suspend or resume request to a job's running backend
// handles, driving the GRAM SUSPENDED state (paper §2's job-manager
// control operations).
func (m *Manager) Signal(contact, signal string) error {
	rec, err := m.cfg.Table.Get(contact)
	if err != nil {
		return err
	}
	m.mu.Lock()
	handles := make([]scheduler.Handle, len(m.running[contact]))
	copy(handles, m.running[contact])
	m.mu.Unlock()

	switch signal {
	case "suspend":
		if rec.State != job.Active {
			return fmt.Errorf("gram: job %q is %s, not ACTIVE", contact, rec.State)
		}
		if err := signalAll(handles, true); err != nil {
			return err
		}
		if err := m.transitionState(rec, job.Suspended); err != nil {
			// The attempt ended (the job finished or restarted)
			// concurrently with the stop signal; undo the stop so nothing
			// lingers and report why.
			_ = signalAll(handles, false)
			return fmt.Errorf("gram: job %q moved on during suspend: %w", contact, err)
		}
		return nil
	case "resume":
		if rec.State != job.Suspended {
			return fmt.Errorf("gram: job %q is %s, not SUSPENDED", contact, rec.State)
		}
		// Mark ACTIVE before waking the process: the instant SIGCONT
		// lands the job may finish, and SUSPENDED -> DONE would race a
		// late ACTIVE transition.
		if err := m.transitionState(rec, job.Active); err != nil {
			return err
		}
		if err := signalAll(handles, false); err != nil {
			_ = m.transitionState(rec, job.Suspended)
			return err
		}
		return nil
	default:
		return fmt.Errorf("gram: unknown signal %q (want suspend or resume)", signal)
	}
}

// transitionState moves the job rec was read from to st, without callback
// data. The record carries rec's restart count: the table refuses it once
// the job has restarted since, so a suspend or resume meant for one attempt
// never reaches the next, nor journals a count the job has moved past.
func (m *Manager) transitionState(rec job.Record, st job.State) error {
	return m.transition(context.Background(), nil, job.Entry{Contact: rec.Contact, State: st.String(), Restarts: rec.Restarts})
}

// signalAll suspends or resumes every handle; backends without suspend
// support fail the operation.
func signalAll(handles []scheduler.Handle, suspend bool) error {
	if len(handles) == 0 {
		return fmt.Errorf("gram: job has no running backend task")
	}
	for _, h := range handles {
		s, ok := h.(scheduler.Suspender)
		if !ok {
			return fmt.Errorf("gram: backend does not support suspension")
		}
		var err error
		if suspend {
			err = s.Suspend()
		} else {
			err = s.Resume()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// waitWithTimeout implements (timeout=...)(action=cancel|exception).
func (m *Manager) waitWithTimeout(ctx context.Context, handles []scheduler.Handle, req *xrsl.JobRequest) (scheduler.Result, error) {
	type outcome struct {
		res scheduler.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := waitAll(ctx, handles)
		done <- outcome{res, err}
	}()
	timer := time.NewTimer(req.Timeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-timer.C:
		switch req.Action {
		case xrsl.ActionCancel:
			// Cancel the command (the paper's (action=cancel)).
			for _, h := range handles {
				h.Cancel()
			}
			o := <-done
			return o.res, fmt.Errorf("gram: timeout after %s: job cancelled", req.Timeout)
		case xrsl.ActionException:
			// Report the exception but let the command keep executing
			// (the paper's (action=exception)).
			return scheduler.Result{}, fmt.Errorf("gram: timeout after %s: execution continues", req.Timeout)
		default:
			o := <-done
			return o.res, o.err
		}
	case <-ctx.Done():
		for _, h := range handles {
			h.Cancel()
		}
		o := <-done
		return o.res, fmt.Errorf("gram: %w", ctx.Err())
	}
}

// waitAll waits for every instance of a count>1 job; the combined result
// carries the first non-zero exit code and concatenated output.
func waitAll(ctx context.Context, handles []scheduler.Handle) (scheduler.Result, error) {
	var combined scheduler.Result
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			return combined, err
		}
		if i == 0 {
			combined = res
		} else {
			combined.Stdout += res.Stdout
			combined.Stderr += res.Stderr
			combined.FinishedAt = res.FinishedAt
		}
		if res.ExitCode != 0 && combined.ExitCode == 0 {
			combined.ExitCode = res.ExitCode
		}
	}
	return combined, nil
}

// fail transitions a job to FAILED, preserving whatever output the failed
// attempt produced. willRestart marks a FAILED the next attempt follows,
// which keeps the job from being forgotten in between.
func (m *Manager) fail(ctx context.Context, contact string, req *xrsl.JobRequest, res scheduler.Result, exitCode int, msg string, attempt int, willRestart bool) {
	_ = m.transition(ctx, req, job.Entry{
		Contact:     contact,
		State:       job.Failed.String(),
		ExitCode:    &exitCode,
		Error:       msg,
		Stdout:      &res.Stdout,
		Stderr:      &res.Stderr,
		Restarts:    attempt,
		WillRestart: willRestart,
	})
}

// Resume restarts the manager goroutine of an unfinished job the table
// holds from a journal replay, under its original contact. Execution
// starts at the journaled restart count (clamped to the request's restart
// budget), so the interrupted attempt is re-run rather than the job
// gaining a fresh budget; a job journaled as a FAILED that will restart
// starts at the attempt after it. The submission is not re-journaled
// here: the journal it was replayed from already holds it. It reports
// false, with a nil error, when the job's backend does not exist in this
// process: the job cannot be re-attached, so it is failed instead.
func (m *Manager) Resume(req *xrsl.JobRequest, rec job.Record) (bool, error) {
	start := rec.Restarts
	if rec.WillRestart {
		start++
	}
	start = max(0, min(start, req.Restart))
	if _, err := m.cfg.Backends.Select(req.JobType); err != nil {
		m.fail(context.Background(), rec.Contact, req, scheduler.Result{}, -1,
			"recovery: "+err.Error(), start, false)
		return false, nil
	}
	if err := m.change(context.Background(), req, job.Entry{
		Contact: rec.Contact, State: job.Pending.String(), Restarts: start,
	}, true); err != nil {
		return false, err
	}
	m.launch(context.Background(), rec.Contact, req, start)
	return true, nil
}

// RecoverJournal is the one restart path. The journal has already
// replayed every job into the table, finished ones with their recorded
// output; RecoverJournal resumes the unfinished ones rec lists, under
// their original contacts, from their last journaled checkpoint and with
// their remaining restart budget. Jobs whose spec no longer decodes — or
// whose backend is absent — are failed with a "recovery:" annotation
// instead of vanishing. It returns the contacts of the jobs resumed and,
// separately, of those failed at recovery, counts only the resumed ones,
// and may run once.
func (m *Manager) RecoverJournal(rec *journal.Recovered, envFor func(owner string) rsl.Env) (resumed, failed []string, err error) {
	if rec == nil {
		return nil, nil, nil
	}
	if !m.recovered.CompareAndSwap(false, true) {
		return nil, nil, errors.New("gram: journal already recovered")
	}
	defer func() { m.cfg.Journal.NoteRecovered(len(resumed)) }()
	for _, contact := range rec.Unfinished {
		js, err := m.cfg.Table.Get(contact)
		if err != nil {
			return resumed, failed, fmt.Errorf("gram: recover %q: %w", contact, err)
		}
		req, err := xrsl.DecodeOne(js.Spec, envFor(js.Owner))
		if err != nil || req.Kind != xrsl.KindJob {
			msg := "recovery: spec is not a restartable job"
			if err != nil {
				msg = "recovery: " + err.Error()
			}
			m.fail(context.Background(), contact, nil, scheduler.Result{}, -1, msg, js.Restarts, false)
			failed = append(failed, contact)
			continue
		}
		// Resume from the last checkpoint the crashed run journaled (§10).
		req.Job.Checkpoint = js.Checkpoint
		ok, err := m.Resume(req.Job, js)
		if err != nil {
			return resumed, failed, fmt.Errorf("gram: recover %q: %w", contact, err)
		}
		if ok {
			resumed = append(resumed, contact)
		} else {
			failed = append(failed, contact)
		}
	}
	return resumed, failed, nil
}
