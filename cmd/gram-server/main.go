// Command gram-server runs the baseline J-GRAM job-execution service of
// paper §2/§7: jobs only, no information queries. Together with mds-server
// it forms the two-protocol Figure 2 deployment that InfoGram replaces.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"infogram/internal/bootstrap"
	"infogram/internal/gram"
	"infogram/internal/logging"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:2119", "listen address")
		fabricDir = flag.String("fabric", "./fabric", "security fabric directory")
		logPath   = flag.String("log", "", "job log file (disabled when empty)")
		stateDir  = flag.String("state-dir", "", "durable job-state directory (write-ahead journal + snapshots); crash recovery replays it on boot (empty = in-memory only)")
		fsync     = flag.String("fsync", "interval", "journal fsync policy: always, interval, or never")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics, plus /debug/traces and /debug/pprof")
		traceOpts = bootstrap.TraceFlags()
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
	opts := traceOpts()
	opts.Telemetry = tel
	tracer := telemetry.NewTracer(opts)

	jnl, recoverJobs, err := bootstrap.OpenJournal("gram", *stateDir, *fsync, tel)
	if err != nil {
		log.Fatal(err)
	}

	svc := gram.NewService(gram.Config{
		Credential: fabric.Service,
		Trust:      fabric.Trust,
		Gridmap:    fabric.Gridmap,
		Backends: gram.Backends{
			Exec:  &scheduler.Fork{},
			Func:  scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{}),
			Queue: scheduler.NewPBS(scheduler.BatchSlots, nil, &scheduler.Fork{}),
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
	recoverJobs(svc.Gatekeeper)

	stopDebug, err := bootstrap.ServeDebug("gram", *metrics, tel, tracer)
	if err != nil {
		log.Fatal(err)
	}
	defer stopDebug()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gram: shutting down")
}
