package gram_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/logging"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/xrsl"
)

// auditLogGolden is the audit log of one job driven through every event
// kind the log records — submit; PENDING, ACTIVE and FAILED "(will
// restart)"; PENDING and ACTIVE at restarts=1; a checkpoint; DONE — as the
// manager wrote it when it still built a logging.Record beside each
// journal.Entry. Rendering the entry must not change a field of it.
const auditLogGolden = `{"time":"2002-07-24T12:00:00Z","kind":"submit","contact":"gram://site:1/1/1","spec":"\u0026(executable=phased)(jobtype=func)(restart=1)(callback=127.0.0.1:1)","owner":"alice","identity":"/O=Grid/CN=alice","trace":"4bf92f3577b34da6a3ce929d0e0e4736"}
{"time":"2002-07-24T12:00:00Z","kind":"state","contact":"gram://site:1/1/1","state":"PENDING"}
{"time":"2002-07-24T12:00:01Z","kind":"state","contact":"gram://site:1/1/1","state":"ACTIVE"}
{"time":"2002-07-24T12:00:02Z","kind":"state","contact":"gram://site:1/1/1","state":"FAILED","exitCode":1,"error":"exit code 1 (will restart)"}
{"time":"2002-07-24T12:00:03Z","kind":"state","contact":"gram://site:1/1/1","state":"PENDING","restarts":1}
{"time":"2002-07-24T12:00:04Z","kind":"state","contact":"gram://site:1/1/1","state":"ACTIVE","restarts":1}
{"time":"2002-07-24T12:00:05Z","kind":"checkpoint","contact":"gram://site:1/1/1","checkpoint":"step=1"}
{"time":"2002-07-24T12:00:05Z","kind":"state","contact":"gram://site:1/1/1","state":"DONE","exitCode":0,"restarts":1}
`

// The audit log is an accounting export of the job events the manager
// journals: its lines keep the format they had when the manager wrote them
// separately, and each event is journaled at most once.
func TestAuditLogFormat(t *testing.T) {
	const contact = "gram://site:1/1/1"
	start := time.Date(2002, 7, 24, 12, 0, 0, 0, time.UTC)
	clk := clock.NewFake(start)

	retried := make(chan struct{})
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	attempts := 0
	fn.RegisterFunc("phased", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		attempts++
		if attempts == 1 {
			return "", errors.New("transient fault")
		}
		<-retried // checkpoint only once the retry's ACTIVE line is written
		sb.Checkpoint("step=1")
		return "ok", nil
	})

	tel := telemetry.NewRegistry()
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	var logBuf syncBuffer
	done := make(chan struct{})
	m := gram.NewManager(gram.ManagerConfig{
		Table:    job.NewTable("site:1"),
		Backends: gram.Backends{Func: fn},
		Log:      logging.NewLogger(&logBuf),
		Journal:  jnl,
		Clock:    clk,
		Notify: gram.NotifierFunc(func(_ string, ev job.Event) {
			// Every event is logged before it is notified; a tick per event
			// gives each later line its own time.
			clk.Advance(time.Second)
			switch {
			case ev.State == job.Active && ev.Restarts == 1:
				close(retried)
			case ev.State == job.Done:
				close(done)
			}
		}),
	})
	const spec = "&(executable=phased)(jobtype=func)(restart=1)(callback=127.0.0.1:1)"
	req, err := xrsl.DecodeOne(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.WithTrace(context.Background(), "4bf92f3577b34da6a3ce929d0e0e4736")
	if _, err := m.Submit(ctx, req.Job, job.Record{
		Contact: contact, Spec: spec, Owner: "alice", Identity: "/O=Grid/CN=alice",
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached DONE")
	}

	got, err := logging.Replay(bytes.NewReader(logBuf.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := logging.Replay(strings.NewReader(auditLogGolden))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("logged %d lines, want %d:\n%s", len(got), len(want), logBuf.Snapshot())
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) {
			t.Errorf("line %d time = %v, want %v", i, g.Time, w.Time)
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("line %d = %+v\nwant      %+v", i, g, w)
		}
	}

	// The journal holds only the recovery-relevant events: the submission,
	// the failure, the retry's PENDING and ACTIVE, the checkpoint and DONE —
	// one append each; the first attempt's PENDING and ACTIVE are neutral.
	if n := tel.Counter("infogram_journal_appends_total", "").Value(); n != 6 {
		t.Errorf("journal appends = %d, want 6", n)
	}
}
