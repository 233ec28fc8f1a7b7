package scheduler

import (
	"context"
	"errors"
	"testing"
	"time"
)

// blockingExec is a Func backend whose tasks park until release is closed,
// so tests can hold the queue's slots and backlog at a known occupancy.
func blockingExec(release <-chan struct{}) *Func {
	fn := NewFunc(TrustedMode, Budgets{})
	fn.RegisterFunc("block", func(ctx context.Context, sb *Sandbox, args []string, stdin string) (string, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "", nil
	})
	return fn
}

func TestQueueMaxPendingSaturates(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q := NewQueue(QueueConfig{
		Name:       "pbs",
		Slots:      1,
		MaxPending: 2,
		Executor:   blockingExec(release),
	})
	defer q.Close()

	// First task occupies the slot; the backlog then absorbs exactly two.
	if _, err := q.Submit(context.Background(), Task{Executable: "block"}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for q.Depth() != want {
			if time.Now().After(deadline) {
				t.Fatalf("depth = %d, want %d", q.Depth(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitDepth(0) // dispatched into the slot
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(context.Background(), Task{Executable: "block"}); err != nil {
			t.Fatalf("backlog submit %d: %v", i, err)
		}
	}
	waitDepth(2)

	_, err := q.Submit(context.Background(), Task{Executable: "block"})
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("want SaturatedError, got %v", err)
	}
	if sat.Backend != "pbs" || sat.Depth != 2 {
		t.Fatalf("SaturatedError = %+v", sat)
	}
	if sat.RetryAfter <= 0 || sat.RetryAfter > 5*time.Second {
		t.Fatalf("retry-after out of range: %s", sat.RetryAfter)
	}
}

func TestQueueUnboundedByDefault(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q := NewQueue(QueueConfig{Name: "pbs", Slots: 1, Executor: blockingExec(release)})
	defer q.Close()
	for i := 0; i < 32; i++ {
		if _, err := q.Submit(context.Background(), Task{Executable: "block"}); err != nil {
			t.Fatalf("submit %d on unbounded queue: %v", i, err)
		}
	}
}

// A queued task cancelled behind a busy slot finishes at once, whether the
// cancel comes from its handle or from the submitter's context, on a
// plain queue and on a matchmaking one alike.
func TestCancelQueuedTaskTakesEffectAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(exec Backend) *Queue
	}{
		{"queue", func(exec Backend) *Queue { return NewQueue(QueueConfig{Slots: 1, Executor: exec}) }},
		{"condor", func(exec Backend) *Queue {
			return NewCondor([]Machine{{Name: "m1", Attrs: map[string]string{"os": "linux"}, Slots: 1}}, exec)
		}},
	} {
		for _, via := range []string{"handle", "context"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				release := make(chan struct{})
				defer close(release)
				q := tc.mk(blockingExec(release))
				defer q.Close()

				if _, err := q.Submit(context.Background(), Task{Executable: "block"}); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(2 * time.Second); q.Depth() != 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("first task never took the slot")
					}
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				h, err := q.Submit(ctx, Task{Executable: "block"})
				if err != nil {
					t.Fatal(err)
				}
				// Let the dispatcher see the second task and go back to
				// sleep on the busy slot before the cancel arrives.
				time.Sleep(20 * time.Millisecond)
				if via == "handle" {
					h.Cancel()
				} else {
					cancel()
				}
				waitCtx, stop := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer stop()
				_, err = h.Wait(waitCtx)
				if err == nil || errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Wait after cancel = %v, want the task cancelled within 100ms", err)
				}
				if want := "scheduler: " + q.Name() + ": cancelled while queued"; err.Error() != want {
					t.Fatalf("err = %q, want %q", err, want)
				}
				if d := q.Depth(); d != 0 {
					t.Fatalf("depth after cancel = %d", d)
				}
			})
		}
	}
}
