// Command gram-server runs the baseline J-GRAM job-execution service of
// paper §2/§7: jobs only, no information queries. Together with mds-server
// it forms the two-protocol Figure 2 deployment that InfoGram replaces.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"infogram/internal/bootstrap"
	"infogram/internal/gram"
	"infogram/internal/journal"
	"infogram/internal/logging"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:2119", "listen address")
		fabricDir   = flag.String("fabric", "./fabric", "security fabric directory")
		logPath     = flag.String("log", "", "job log file (disabled when empty)")
		stateDir    = flag.String("state-dir", "", "durable job-state directory (write-ahead journal + snapshots); crash recovery replays it on boot (empty = in-memory only)")
		fsync       = flag.String("fsync", "interval", "journal fsync policy: always, interval, or never")
		slots       = flag.Int("queue-slots", 4, "slots in the batch queue backend")
		metrics     = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics, plus /debug/traces and /debug/pprof")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of healthy traces to keep (errored and slow traces are always kept; 0 keeps only those)")
		traceSlow   = flag.Duration("trace-slow", 0, "always keep traces at least this slow (0 disables the slow rule)")
	)
	flag.Parse()

	fabric, err := bootstrap.SelfSigned(*fabricDir)
	if err != nil {
		log.Fatalf("fabric: %v", err)
	}
	var logger *logging.Logger
	if *logPath != "" {
		logger, err = logging.OpenFile(*logPath)
		if err != nil {
			log.Fatalf("log: %v", err)
		}
		defer logger.Close()
	}

	tel := telemetry.NewRegistry()
	traceOpts := telemetry.TracerOptionsFromFlags(*traceSample, *traceSlow)
	traceOpts.Telemetry = tel
	tracer := telemetry.NewTracer(traceOpts)

	var (
		jnl       *journal.Journal
		recovered *journal.Recovered
	)
	if *stateDir != "" {
		policy, err := journal.ParsePolicy(*fsync)
		if err != nil {
			log.Fatalf("fsync: %v", err)
		}
		jnl, recovered, err = journal.Open(journal.Options{
			Dir:       *stateDir,
			Fsync:     policy,
			Telemetry: tel,
		})
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
	}

	svc := gram.NewService(gram.Config{
		Credential: fabric.Service,
		Trust:      fabric.Trust,
		Gridmap:    fabric.Gridmap,
		Backends: gram.Backends{
			Exec:  &scheduler.Fork{},
			Func:  scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{}),
			Queue: scheduler.NewPBS(*slots, nil, &scheduler.Fork{}),
		},
		Log:     logger,
		Journal: jnl,
		Tracer:  tracer,
	})
	bound, err := svc.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer svc.Close()
	fmt.Printf("gram: serving GRAMP on %s (jobs only; pair with mds-server for information)\n", bound)

	if recovered != nil && len(recovered.Jobs) > 0 {
		contacts, err := svc.RecoverJournal(recovered)
		if err != nil {
			log.Printf("recover: %v", err)
		}
		fmt.Printf("gram: journal replayed %d job(s) from %s (%d resumed)\n",
			len(recovered.Jobs), *stateDir, len(contacts))
	}

	if *metrics != "" {
		mux := telemetry.NewDebugMux(tel, tracer)
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		metricsSrv := session.NewHTTPServer(mux)
		go func() { _ = metricsSrv.Serve(ln) }()
		defer metricsSrv.Close()
		fmt.Printf("gram: Prometheus metrics on http://%s/metrics (traces at /debug/traces, profiles at /debug/pprof)\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gram: shutting down")
}
