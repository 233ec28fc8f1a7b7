package scheduler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"infogram/internal/telemetry"
)

func waitRes(t *testing.T, h Handle) Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return res
}

func TestForkEcho(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{Executable: "/bin/echo", Args: []string{"hello"}})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if res.ExitCode != 0 || strings.TrimSpace(res.Stdout) != "hello" {
		t.Errorf("res = %+v", res)
	}
}

func TestForkExitCode(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{Executable: "/bin/sh", Args: []string{"-c", "exit 3"}})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if res.ExitCode != 3 {
		t.Errorf("ExitCode = %d", res.ExitCode)
	}
}

func TestForkStdinAndEnv(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{
		Executable: "/bin/sh",
		Args:       []string{"-c", `read line; echo "got:$line:$MYVAR"`},
		Stdin:      "input-line\n",
		Env:        map[string]string{"MYVAR": "v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if strings.TrimSpace(res.Stdout) != "got:input-line:v1" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestForkDir(t *testing.T) {
	dir := t.TempDir()
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{Executable: "/bin/pwd", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if strings.TrimSpace(res.Stdout) != dir {
		t.Errorf("pwd = %q, want %q", res.Stdout, dir)
	}
}

func TestForkStderr(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{
		Executable: "/bin/sh", Args: []string{"-c", "echo oops >&2; exit 1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if res.ExitCode != 1 || strings.TrimSpace(res.Stderr) != "oops" {
		t.Errorf("res = %+v", res)
	}
}

func TestForkMissingBinary(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{Executable: "/no/such/bin"})
	if err != nil {
		t.Fatal(err) // submit is async; error surfaces at Wait
	}
	if _, err := h.Wait(context.Background()); err == nil {
		t.Error("expected error for missing binary")
	}
	if _, err := f.Submit(context.Background(), Task{}); err == nil {
		t.Error("empty executable accepted")
	}
}

func TestForkCancel(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{Executable: "/bin/sleep", Args: []string{"30"}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		h.Cancel()
	}()
	start := time.Now()
	if _, err := h.Wait(context.Background()); err == nil {
		t.Error("cancelled job reported success")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel did not stop the process promptly")
	}
}

func TestForkOutputTruncation(t *testing.T) {
	f := &Fork{MaxOutput: 64}
	h, err := f.Submit(context.Background(), Task{
		Executable: "/bin/sh", Args: []string{"-c", "yes x | head -c 10000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if !strings.Contains(res.Stdout, "[output truncated]") {
		t.Errorf("no truncation marker in %d bytes", len(res.Stdout))
	}
	if len(res.Stdout) > 200 {
		t.Errorf("stdout not bounded: %d bytes", len(res.Stdout))
	}
}

func TestFuncBackendBasic(t *testing.T) {
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("greet", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		return "hi " + strings.Join(args, ","), nil
	})
	h, err := fn.Submit(context.Background(), Task{Executable: "greet", Args: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if res.ExitCode != 0 || res.Stdout != "hi a,b" {
		t.Errorf("res = %+v", res)
	}
	if got := fn.Registered(); len(got) != 1 || got[0] != "greet" {
		t.Errorf("Registered = %v", got)
	}
}

func TestFuncBackendUnknown(t *testing.T) {
	fn := NewFunc(TrustedMode, Budgets{})
	if _, err := fn.Submit(context.Background(), Task{Executable: "ghost"}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestFuncBackendErrorBecomesExitCode(t *testing.T) {
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("bad", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		return "", errors.New("application error")
	})
	h, _ := fn.Submit(context.Background(), Task{Executable: "bad"})
	res := waitRes(t, h)
	if res.ExitCode != 1 || !strings.Contains(res.Stderr, "application error") {
		t.Errorf("res = %+v", res)
	}
}

func TestSandboxStepBudget(t *testing.T) {
	// E13: an untrusted hog is stopped in restricted mode and allowed in
	// trusted mode.
	hog := func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		for i := 0; i < 1000; i++ {
			if err := sb.Step(); err != nil {
				return "", err
			}
		}
		return "done", nil
	}
	restricted := NewFunc(RestrictedMode, Budgets{Steps: 100, WallTime: time.Minute})
	restricted.RegisterFunc("hog", hog)
	h, _ := restricted.Submit(context.Background(), Task{Executable: "hog"})
	res := waitRes(t, h)
	if res.ExitCode == 0 || !strings.Contains(res.Stderr, "step budget") {
		t.Errorf("restricted hog: %+v", res)
	}

	trusted := NewFunc(TrustedMode, Budgets{Steps: 100})
	trusted.RegisterFunc("hog", hog)
	h, _ = trusted.Submit(context.Background(), Task{Executable: "hog"})
	res = waitRes(t, h)
	if res.ExitCode != 0 || res.Stdout != "done" {
		t.Errorf("trusted hog: %+v", res)
	}
}

func TestSandboxAllocBudget(t *testing.T) {
	fn := NewFunc(RestrictedMode, Budgets{AllocBytes: 1024, WallTime: time.Minute})
	fn.RegisterFunc("eater", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		for i := 0; i < 10; i++ {
			if err := sb.Alloc(256); err != nil {
				return "", err
			}
		}
		return "ok", nil
	})
	h, _ := fn.Submit(context.Background(), Task{Executable: "eater"})
	res := waitRes(t, h)
	if res.ExitCode == 0 || !strings.Contains(res.Stderr, "memory budget") {
		t.Errorf("res = %+v", res)
	}
}

func TestSandboxWallTime(t *testing.T) {
	fn := NewFunc(RestrictedMode, Budgets{Steps: 1 << 40, AllocBytes: 1 << 40, WallTime: 50 * time.Millisecond})
	fn.RegisterFunc("sleeper", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(10 * time.Second):
			return "overslept", nil
		}
	})
	h, _ := fn.Submit(context.Background(), Task{Executable: "sleeper"})
	start := time.Now()
	res := waitRes(t, h)
	if res.ExitCode == 0 {
		t.Errorf("wall-time hog succeeded: %+v", res)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("wall-time budget not enforced promptly")
	}
}

func TestSandboxPanicIsolation(t *testing.T) {
	fn := NewFunc(RestrictedMode, Budgets{})
	fn.RegisterFunc("bomb", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		panic("boom")
	})
	h, _ := fn.Submit(context.Background(), Task{Executable: "bomb"})
	res := waitRes(t, h)
	if res.ExitCode == 0 || !strings.Contains(res.Stderr, "panicked") {
		t.Errorf("res = %+v", res)
	}
	// The backend survives and runs the next job.
	fn.RegisterFunc("ok", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		return "fine", nil
	})
	h, _ = fn.Submit(context.Background(), Task{Executable: "ok"})
	if res := waitRes(t, h); res.Stdout != "fine" {
		t.Errorf("post-panic job: %+v", res)
	}
}

func TestSandboxPrintf(t *testing.T) {
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("writer", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		sb.Printf("line %d\n", 1)
		return "tail", nil
	})
	h, _ := fn.Submit(context.Background(), Task{Executable: "writer"})
	res := waitRes(t, h)
	if res.Stdout != "line 1\ntail" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestSandboxCheckpoint(t *testing.T) {
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("stepper", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		start := 0
		if r := sb.Restored(); r != "" {
			fmt.Sscanf(r, "step=%d", &start)
		}
		for i := start; i < 5; i++ {
			sb.Checkpoint(fmt.Sprintf("step=%d", i+1))
		}
		return fmt.Sprintf("resumed-at=%d", start), nil
	})
	var ckpts []string
	h, err := fn.Submit(context.Background(), Task{
		Executable:   "stepper",
		OnCheckpoint: func(d string) { ckpts = append(ckpts, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if res.Stdout != "resumed-at=0" {
		t.Errorf("fresh run stdout = %q", res.Stdout)
	}
	if len(ckpts) != 5 || ckpts[4] != "step=5" {
		t.Errorf("checkpoints = %v", ckpts)
	}
	// A resumed run starts from the supplied checkpoint.
	h, err = fn.Submit(context.Background(), Task{Executable: "stepper", Checkpoint: "step=3"})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitRes(t, h); res.Stdout != "resumed-at=3" {
		t.Errorf("resumed run stdout = %q", res.Stdout)
	}
	// Checkpoint without a sink is a no-op.
	h, _ = fn.Submit(context.Background(), Task{Executable: "stepper"})
	waitRes(t, h)
}

func TestForkSuspendResume(t *testing.T) {
	f := &Fork{}
	// The job sleeps briefly then writes; while SIGSTOPped it must not
	// make progress.
	h, err := f.Submit(context.Background(), Task{
		Executable: "/bin/sh",
		Args:       []string{"-c", "sleep 0.2; echo finished"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sus, ok := h.(Suspender)
	if !ok {
		t.Fatal("fork handle does not implement Suspender")
	}
	time.Sleep(30 * time.Millisecond) // let the process start
	if err := sus.Suspend(); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	// Well past the job's natural runtime: still not finished.
	waitCtx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	if _, err := h.Wait(waitCtx); err == nil {
		cancel()
		t.Fatal("suspended job finished")
	}
	cancel()
	if err := sus.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res := waitRes(t, h)
	if res.ExitCode != 0 || strings.TrimSpace(res.Stdout) != "finished" {
		t.Errorf("res = %+v", res)
	}
	// Signalling a finished process errors cleanly.
	if err := sus.Suspend(); err == nil {
		t.Error("Suspend after exit succeeded")
	}
}

func TestForkCheckpointEnv(t *testing.T) {
	f := &Fork{}
	h, err := f.Submit(context.Background(), Task{
		Executable: "/bin/sh",
		Args:       []string{"-c", `echo "ckpt:$INFOGRAM_CHECKPOINT"`},
		Checkpoint: "pos=42",
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if strings.TrimSpace(res.Stdout) != "ckpt:pos=42" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestModeStrings(t *testing.T) {
	if TrustedMode.String() != "trusted" || RestrictedMode.String() != "restricted" {
		t.Error("mode strings wrong")
	}
}

// fastExec is an inner backend for queue tests: tasks complete after a
// short, configurable busy period.
func fastExec(d time.Duration) *Func {
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("task", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return "", ctx.Err()
		}
		return strings.Join(args, " "), nil
	})
	return fn
}

func TestQueueFIFOOrder(t *testing.T) {
	exec := fastExec(20 * time.Millisecond)
	q := NewQueue(QueueConfig{Name: "pbs", Slots: 1, Policy: FIFO{}, Executor: exec})
	defer q.Close()

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b", "c", "d"} {
		h, err := q.Submit(context.Background(), Task{Executable: "task", Args: []string{name}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := h.Wait(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, res.Stdout)
			mu.Unlock()
		}()
		time.Sleep(5 * time.Millisecond) // establish arrival order
	}
	wg.Wait()
	if strings.Join(order, "") != "abcd" {
		t.Errorf("FIFO order = %v", order)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	exec := fastExec(30 * time.Millisecond)
	q := NewQueue(QueueConfig{Name: "lsf", Slots: 1, Policy: PriorityPolicy{}, Executor: exec})
	defer q.Close()

	// Occupy the single slot, then enqueue mixed priorities.
	h0, err := q.Submit(context.Background(), Task{Executable: "task", Args: []string{"first"}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	var handles []Handle
	names := []string{"low", "high", "mid"}
	prios := []int{1, 10, 5}
	for i := range names {
		h, err := q.Submit(context.Background(), Task{Executable: "task", Args: []string{names[i]}, Priority: prios[i]})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := h0.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Collect completion order by waiting on all and comparing start
	// times.
	type done struct {
		name  string
		start time.Time
	}
	var ds []done
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, done{names[i], res.StartedAt})
	}
	byName := map[string]time.Time{}
	for _, d := range ds {
		byName[d.name] = d.start
	}
	if !byName["high"].Before(byName["mid"]) || !byName["mid"].Before(byName["low"]) {
		t.Errorf("priority order wrong: high=%v mid=%v low=%v",
			byName["high"], byName["mid"], byName["low"])
	}
}

func TestQueueSlotsBoundConcurrency(t *testing.T) {
	var running, peak int
	var mu sync.Mutex
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("task", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return "", nil
	})
	lat := &telemetry.Histogram{}
	q := NewQueue(QueueConfig{Slots: 2, Executor: fn, DispatchLatency: lat})
	defer q.Close()

	var handles []Handle
	for i := 0; i < 8; i++ {
		h, err := q.Submit(context.Background(), Task{Executable: "task"})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		waitRes(t, h)
	}
	if peak > 2 {
		t.Errorf("peak concurrency = %d, want <= 2", peak)
	}
	// One histogram, one observation per wait: WaitStats reads the
	// caller's DispatchLatency rather than a second copy.
	if st := q.WaitStats(); st.Count != 8 || st != lat.Snapshot() {
		t.Errorf("wait samples = %d, DispatchLatency = %d", st.Count, lat.Snapshot().Count)
	}
}

func TestQueueWalltimeLimits(t *testing.T) {
	q := NewPBS(1, map[string]QueueLimits{
		"short": {MaxWallTime: time.Minute},
		"long":  {MaxWallTime: time.Hour},
	}, fastExec(time.Millisecond))
	defer q.Close()

	if _, err := q.Submit(context.Background(), Task{
		Executable: "task", Queue: "short", EstRuntime: 2 * time.Minute,
	}); err == nil {
		t.Error("over-limit task accepted")
	}
	h, err := q.Submit(context.Background(), Task{
		Executable: "task", Queue: "long", EstRuntime: 30 * time.Minute,
	})
	if err != nil {
		t.Fatalf("long queue: %v", err)
	}
	waitRes(t, h)
	if _, err := q.Submit(context.Background(), Task{Executable: "task", Queue: "ghost"}); err == nil {
		t.Error("unknown queue accepted")
	}
}

func TestQueueCancelWhileQueued(t *testing.T) {
	exec := fastExec(200 * time.Millisecond)
	q := NewQueue(QueueConfig{Slots: 1, Executor: exec})
	defer q.Close()
	h1, err := q.Submit(context.Background(), Task{Executable: "task"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := q.Submit(context.Background(), Task{Executable: "task"})
	if err != nil {
		t.Fatal(err)
	}
	h2.Cancel()
	if _, err := h2.Wait(context.Background()); err == nil {
		t.Error("cancelled queued task reported success")
	}
	waitRes(t, h1)
}

func TestQueueClose(t *testing.T) {
	q := NewQueue(QueueConfig{Slots: 1, Executor: fastExec(100 * time.Millisecond)})
	h1, _ := q.Submit(context.Background(), Task{Executable: "task"})
	h2, _ := q.Submit(context.Background(), Task{Executable: "task"})
	time.Sleep(10 * time.Millisecond)
	q.Close()
	// Queued task fails; running one may complete.
	if _, err := h2.Wait(context.Background()); err == nil {
		t.Error("queued task survived Close")
	}
	_, _ = h1.Wait(context.Background())
	if _, err := q.Submit(context.Background(), Task{Executable: "task"}); err == nil {
		t.Error("Submit after Close succeeded")
	}
}

func TestFairshare(t *testing.T) {
	fs := &Fairshare{Decay: 1}
	// alice has consumed time; bob has not: bob's task runs first.
	fs.Finished(&QueuedTask{Task: Task{Owner: "alice"}}, 10*time.Second)
	pending := []*QueuedTask{
		{Task: Task{Owner: "alice", Priority: 100}},
		{Task: Task{Owner: "bob"}},
	}
	if idx := fs.Next(pending); idx != 1 {
		t.Errorf("Next = %d, want bob (1)", idx)
	}
	// Equal usage: priority breaks the tie.
	pending2 := []*QueuedTask{
		{Task: Task{Owner: "carol", Priority: 1}},
		{Task: Task{Owner: "dave", Priority: 9}},
	}
	if idx := fs.Next(pending2); idx != 1 {
		t.Errorf("tie-break Next = %d, want 1", idx)
	}
	if fs.Usage("alice") == 0 {
		t.Error("alice's usage not recorded")
	}
}

func TestLSFFairshareIntegration(t *testing.T) {
	exec := fastExec(30 * time.Millisecond)
	q := NewLSF(1, exec)
	defer q.Close()
	ctx := context.Background()

	// alice floods the queue; bob submits one task later. Bob's task must
	// not wait behind all of alice's.
	var aliceHandles []Handle
	for i := 0; i < 4; i++ {
		h, err := q.Submit(ctx, Task{Executable: "task", Owner: "alice"})
		if err != nil {
			t.Fatal(err)
		}
		aliceHandles = append(aliceHandles, h)
	}
	time.Sleep(40 * time.Millisecond) // let alice's first task run
	hBob, err := q.Submit(ctx, Task{Executable: "task", Owner: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	resBob, err := hBob.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var lastAlice time.Time
	for _, h := range aliceHandles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinishedAt.After(lastAlice) {
			lastAlice = res.FinishedAt
		}
	}
	if !resBob.FinishedAt.Before(lastAlice) {
		t.Error("fairshare did not advance bob ahead of alice's backlog")
	}
}

func TestCondorMatchmaking(t *testing.T) {
	exec := fastExec(10 * time.Millisecond)
	c := NewCondor([]Machine{
		{Name: "linuxbox", Attrs: map[string]string{"os": "linux", "arch": "x86"}, Slots: 1},
		{Name: "sunbox", Attrs: map[string]string{"os": "solaris", "arch": "sparc"}, Slots: 1},
	}, exec)
	defer c.Close()
	ctx := context.Background()

	h, err := c.Submit(ctx, Task{Executable: "task", Requirements: map[string]string{"os": "solaris"}})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRes(t, h)
	if res.Machine != "sunbox" {
		t.Errorf("Machine = %q", res.Machine)
	}
	// Unsatisfiable requirements are rejected at submit.
	if _, err := c.Submit(ctx, Task{Executable: "task", Requirements: map[string]string{"os": "plan9"}}); err == nil {
		t.Error("unsatisfiable requirements accepted")
	}
	// No requirements: matches any machine.
	h, err = c.Submit(ctx, Task{Executable: "task"})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitRes(t, h); res.Machine == "" {
		t.Error("no machine recorded")
	}
}

func TestCondorSlotContention(t *testing.T) {
	exec := fastExec(30 * time.Millisecond)
	c := NewCondor([]Machine{
		{Name: "m1", Attrs: map[string]string{"os": "linux"}, Slots: 1},
	}, exec)
	defer c.Close()
	ctx := context.Background()

	var handles []Handle
	for i := 0; i < 3; i++ {
		h, err := c.Submit(ctx, Task{Executable: "task", Requirements: map[string]string{"os": "linux"}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		res := waitRes(t, h)
		if res.Machine != "m1" {
			t.Errorf("Machine = %q", res.Machine)
		}
	}
	if st := c.WaitStats(); st.Count != 3 {
		t.Errorf("wait samples = %d", st.Count)
	}
}

func TestCondorSkipsBlockedJobForLaterMatch(t *testing.T) {
	exec := fastExec(80 * time.Millisecond)
	c := NewCondor([]Machine{
		{Name: "linux1", Attrs: map[string]string{"os": "linux"}, Slots: 1},
		{Name: "mac1", Attrs: map[string]string{"os": "mac"}, Slots: 1},
	}, exec)
	defer c.Close()
	ctx := context.Background()

	// Occupy linux1, then queue another linux job and a mac job: the mac
	// job must not wait behind the blocked linux job.
	h1, _ := c.Submit(ctx, Task{Executable: "task", Requirements: map[string]string{"os": "linux"}})
	time.Sleep(10 * time.Millisecond)
	h2, _ := c.Submit(ctx, Task{Executable: "task", Requirements: map[string]string{"os": "linux"}})
	h3, _ := c.Submit(ctx, Task{Executable: "task", Requirements: map[string]string{"os": "mac"}})

	res3 := waitRes(t, h3)
	res2 := waitRes(t, h2)
	waitRes(t, h1)
	if !res3.StartedAt.Before(res2.StartedAt) {
		t.Error("mac job waited behind blocked linux job")
	}
}
