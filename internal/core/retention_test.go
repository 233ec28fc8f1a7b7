package core_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/job"
	"infogram/internal/provider"
)

// A job the service has forgotten answers STATUS and CANCEL with its own
// error, which the client hands back as job.ErrExpired; a contact the
// service never issued stays "unknown".
func TestExpiredContactOverWire(t *testing.T) {
	g := newTestGrid(t, provider.NewRegistry(nil))
	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	contact, err := cl.Submit("&(executable=hello)(jobtype=func)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.WaitTerminal(ctx, contact, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Retire a full window of jobs that finished later straight into
	// the table.
	table := g.svc.Table()
	var done []job.Record
	for i := 0; i < 2*job.KeepTerminal; i++ {
		at := time.Now()
		done = append(done, job.Record{Contact: table.NewContact(at), State: job.Done, Submitted: at, Updated: at})
	}
	table.Restore(done, 0)

	_, err = cl.Status(contact)
	if !errors.Is(err, job.ErrExpired) || !strings.Contains(err.Error(), `job: contact "`+contact+`" expired`) {
		t.Fatalf("Status(forgotten) = %v; want job.ErrExpired", err)
	}
	if err := cl.Cancel(contact); !errors.Is(err, job.ErrExpired) {
		t.Errorf("Cancel(forgotten) = %v; want job.ErrExpired", err)
	}
	if _, err := cl.Status("gram://nope/9/9"); err == nil || errors.Is(err, job.ErrExpired) ||
		!strings.Contains(err.Error(), "unknown contact") {
		t.Errorf("Status(never issued) = %v; want unknown contact", err)
	}
}

// TestHeapFlatAcrossRetentionWindows runs retention windows
// (job.KeepTerminal jobs each) of SUBMIT and STATUS traffic through a
// journaled service. Every window ends on a cut of the window, with the
// table holding the same KeepTerminal finished jobs, so the live heap
// after the third window must be within 10 % of the live heap after the
// first: nothing the service keeps may grow with the jobs it has run. A
// warm-up window runs first. It takes every bounded structure to its
// high-water mark, the table's map included: a Go map keeps its capacity,
// and before the first cut it has never held 2·KeepTerminal jobs.
func TestHeapFlatAcrossRetentionWindows(t *testing.T) {
	if core.RaceEnabled || testing.Short() {
		t.Skip("runs 4·KeepTerminal jobs; skipped under -race and -short")
	}
	jnl, _ := openJournal(t, t.TempDir())
	g := newTestGridConfig(t, provider.NewRegistry(nil), nil, withJournal(jnl))
	const workers = 4
	clients := make([]*core.Client, workers)
	for i := range clients {
		cl, err := core.Dial(g.addr, g.user, g.trust)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	window := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		errs := make(chan error, workers)
		for _, cl := range clients {
			go func() {
				for i := 0; i < job.KeepTerminal/workers; i++ {
					contact, err := cl.Submit("&(executable=hello)(jobtype=func)")
					if err == nil {
						_, err = cl.WaitTerminal(ctx, contact, 50*time.Microsecond)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range clients {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	// Collect until the live heap stops falling: a buffer dropped just
	// before a collection can outlive it.
	liveHeap := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		least := uint64(math.MaxUint64)
		for i := 0; i < 10; i++ {
			runtime.GC()
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v < least {
				least = v
			} else if i >= 2 {
				break
			}
		}
		return least
	}
	window()
	window()
	first := liveHeap()
	window()
	window()
	third := liveHeap()
	t.Logf("live heap after window 1: %d B, after window 3: %d B", first, third)
	if float64(third) > 1.10*float64(first) {
		t.Errorf("live heap grew from %d B after one window to %d B after three; want within 10 %%", first, third)
	}
	if n := g.svc.Table().Len(); n != job.KeepTerminal {
		t.Errorf("table holds %d jobs after the windows; want %d", n, job.KeepTerminal)
	}
}
