package core_test

import (
	"context"
	"errors"
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
	for i := 0; i < 2*job.KeepTerminal; i++ {
		at := time.Now()
		if err := table.Create(job.Record{Contact: table.NewContact(at), State: job.Done, Submitted: at, Updated: at}); err != nil {
			t.Fatal(err)
		}
	}

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
