package bootstrap

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/xrsl"
)

// gatekeeper is a bound gatekeeper over jnl with one instant func job.
func gatekeeper(jnl *journal.Journal) *gram.Gatekeeper {
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) { return "", nil })
	gk := gram.NewGatekeeper(nil, nil, gram.ManagerConfig{Backends: gram.Backends{Func: fn}, Journal: jnl})
	gk.Bind("127.0.0.1:2119")
	return gk
}

// captureStdout returns what fn prints on standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	fn()
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out)
}

// TestOpenJournalReportsRecovery boots twice on one state directory, the
// second time over a torn tail: the notice is logged and the replayed job
// reported under the binary's prefix.
func TestOpenJournalReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := OpenJournal("gram", dir, "never", nil)
	if err != nil {
		t.Fatal(err)
	}
	gk := gatekeeper(jnl)
	req, err := xrsl.DecodeOne("&(executable=noop)(jobtype=func)", nil)
	if err != nil {
		t.Fatal(err)
	}
	contact, err := gk.SubmitJob(context.Background(), req, "/O=Grid/CN=alice", "alice")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if rec, err := gk.Table().Get(contact); err == nil && rec.State == job.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never DONE")
		}
	}
	if err := gk.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no journal segment")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}) // a header promising bytes that never came
	f.Close()

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	jnl, recoverJobs, err := OpenJournal("gram", dir, "never", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "journal: torn record at the tail of the newest segment was discarded") {
		t.Errorf("torn tail not reported; log: %q", logged.String())
	}
	gk = gatekeeper(jnl)
	defer gk.Close()
	got := captureStdout(t, func() { recoverJobs(gk) })
	if want := "gram: journal replayed 1 job(s) from " + dir + " (0 resumed)\n"; got != want {
		t.Errorf("recovery line = %q, want %q", got, want)
	}
}

func TestOpenJournalWithoutStateDir(t *testing.T) {
	jnl, recoverJobs, err := OpenJournal("gram", "", "bogus", nil)
	if jnl != nil || err != nil {
		t.Fatalf("OpenJournal without a directory = %v, %v", jnl, err)
	}
	if got := captureStdout(t, func() { recoverJobs(nil) }); got != "" {
		t.Errorf("recovery without a journal printed %q", got)
	}
	if _, _, err := OpenJournal("gram", t.TempDir(), "bogus", nil); err == nil || !strings.HasPrefix(err.Error(), "fsync: ") {
		t.Errorf("bad fsync policy = %v", err)
	}
}

// TestServeDebug serves the debug endpoint and checks the line printed
// for it, with and without a tracer.
func TestServeDebug(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("smoke_total", "a counter to scrape").Inc()
	for _, tracer := range []*telemetry.Tracer{nil, telemetry.NewTracer(telemetry.TracerOptions{})} {
		var stop func()
		out := captureStdout(t, func() {
			var err error
			if stop, err = ServeDebug("mds", "127.0.0.1:0", reg, tracer); err != nil {
				t.Fatal(err)
			}
		})
		url, rest, ok := strings.Cut(strings.TrimPrefix(out, "mds: Prometheus metrics on "), "/metrics")
		want := " (traces at /debug/traces, profiles at /debug/pprof)\n"
		if tracer == nil {
			want = "\n"
		}
		if !ok || rest != want {
			t.Errorf("printed %q", out)
		}
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		stop()
		if !strings.Contains(string(body), "smoke_total 1") {
			t.Errorf("/metrics lacks the counter:\n%s", body)
		}
	}
}
