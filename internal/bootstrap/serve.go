package bootstrap

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"

	"infogram/internal/gram"
	"infogram/internal/journal"
	"infogram/internal/session"
	"infogram/internal/telemetry"
)

// OpenJournal opens a gatekeeper binary's durable job state in dir with
// the named fsync policy, logging a torn tail the replay discarded. It
// returns the journal and the step that, once the service listens,
// resumes the replayed jobs through gk and prints what the replay found
// under the binary's prefix. An empty dir opens nothing: the journal is
// nil and the step does nothing.
func OpenJournal(prefix, dir, fsync string, tel *telemetry.Registry) (*journal.Journal, func(gk *gram.Gatekeeper), error) {
	if dir == "" {
		return nil, func(*gram.Gatekeeper) {}, nil
	}
	policy, err := journal.ParsePolicy(fsync)
	if err != nil {
		return nil, nil, fmt.Errorf("fsync: %w", err)
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: policy, Telemetry: tel})
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if rec.TornTail {
		log.Printf("journal: torn record at the tail of the newest segment was discarded")
	}
	replayed := jnl.Table().Len()
	return jnl, func(gk *gram.Gatekeeper) {
		if replayed == 0 {
			return
		}
		resumed, failed, err := gk.RecoverJournal(rec)
		if err != nil {
			log.Printf("recover: %v", err)
		}
		fmt.Printf("%s: journal replayed %d job(s) from %s (%d resumed)", prefix, replayed, dir, len(resumed))
		if len(failed) > 0 {
			fmt.Printf(", %d failed at recovery: %s", len(failed), strings.Join(failed, " "))
		}
		fmt.Println()
	}, nil
}

// ServeDebug serves the debug endpoint (telemetry.NewDebugMux) on addr
// and prints its URL under the binary's prefix; it returns the function
// that stops it. An empty addr serves nothing.
func ServeDebug(prefix, addr string, tel *telemetry.Registry, tracer *telemetry.Tracer) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen: %w", err)
	}
	srv := session.NewHTTPServer(telemetry.NewDebugMux(tel, tracer))
	go func() { _ = srv.Serve(ln) }()
	var also string
	if tracer != nil {
		also = " (traces at /debug/traces, profiles at /debug/pprof)"
	}
	fmt.Printf("%s: Prometheus metrics on http://%s/metrics%s\n", prefix, ln.Addr(), also)
	return func() { _ = srv.Close() }, nil
}

// TraceFlags declares the server binaries' -trace-sample and -trace-slow
// flags and returns the function that reads them, after flag.Parse, as
// tracer options. The flag's 0 sample means "keep only errored and slow
// traces", which TracerOptions spells as a negative rate (its own 0 means
// "default to 1.0").
func TraceFlags() func() telemetry.TracerOptions {
	sample := flag.Float64("trace-sample", 1.0, "fraction of healthy traces to keep (errored and slow traces are always kept; 0 keeps only those)")
	slow := flag.Duration("trace-slow", 0, "always keep traces at least this slow (0 disables the slow rule)")
	return func() telemetry.TracerOptions {
		rate := *sample
		if rate == 0 {
			rate = -1
		}
		return telemetry.TracerOptions{SampleRate: rate, SlowThreshold: *slow}
	}
}
