// Command infogram-server runs one InfoGram service: the unified
// information-query and job-execution Grid service of the paper. It loads
// (or self-generates) a GSI security fabric, registers the information
// providers from a Table-1-style configuration file, and serves the single
// InfoGram protocol on one port. Optionally it also exposes the same
// providers through the MDS protocol for backward compatibility.
//
// Quickstart:
//
//	infogram-server -fabric ./fabric -addr 127.0.0.1:2119
//	infogram -fabric ./fabric -server 127.0.0.1:2119 query '(info=all)'
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"infogram/internal/bootstrap"
	"infogram/internal/cluster"
	"infogram/internal/config"
	"infogram/internal/core"
	"infogram/internal/faultinject"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/journal"
	"infogram/internal/logging"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wsgw"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:2119", "listen address (GRAM's classic port by default)")
		fabricDir   = flag.String("fabric", "./fabric", "security fabric directory (self-generated when missing)")
		confPath    = flag.String("config", "", "provider configuration file (Table 1 format); built-in providers when empty")
		resource    = flag.String("resource", "", "resource name in entry DNs (hostname when empty)")
		logPath     = flag.String("log", "", "job/accounting log file (disabled when empty)")
		mdsAddr     = flag.String("mds-addr", "", "also serve the MDS GRIS protocol on this address")
		wsAddr      = flag.String("ws-addr", "", "also serve the Web-services (SOAP/WSDL) gateway on this address")
		wsToken     = flag.String("ws-token", "", "shared token required from Web-services clients")
		stateDir    = flag.String("state-dir", "", "durable job-state directory (write-ahead journal + snapshots); crash recovery replays it on boot; with -cache-ttl the response cache also snapshots here every minute and on shutdown, and restarts warm (empty = in-memory only)")
		fsync       = flag.String("fsync", "interval", "journal fsync policy: always, interval, or never")
		sandbox     = flag.Bool("restricted", false, "run in-process jobs in the restricted sandbox")
		metrics     = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics, plus /debug/traces and /debug/pprof")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of healthy traces to keep (errored and slow traces are always kept; 0 keeps only those)")
		traceSlow   = flag.Duration("trace-slow", 0, "always keep traces at least this slow (0 disables the slow rule)")
		reqTO       = flag.Duration("request-timeout", 0, "per-request deadline and slow-client I/O timeout (0 disables)")
		provTO      = flag.Duration("provider-timeout", 0, "per-provider collection timeout; failures degrade replies instead of erroring (0 disables)")
		quotaPath   = flag.String("quota", "", "admission-control contract file: §5.3 contracts with rate=/burst=/priority= clauses metering each identity with a token bucket (empty = unmetered)")
		maxInflight = flag.Int("max-inflight", 0, "global bound on concurrently executing requests; excess waits briefly, then is shed with REJECT (0 disables)")
		shedQueue   = flag.Int("shed-queue", 0, "backpressure wait-queue length; low/normal/high priorities shed at 1/2, 3/4, and full occupancy (0 = 2*max-inflight)")
		queueTO     = flag.Duration("queue-timeout", 0, "max wait for an inflight slot before shedding (0 = 1s default)")
		submitBL    = flag.Int("submit-backlog", 0, "refuse job submissions with REJECT while the selected backend holds this many pending tasks (0 disables)")
		cacheTTL    = flag.Duration("cache-ttl", 0, "enable the sharded response cache: rendered info bodies served zero-copy for up to this long, capped by each covered provider's TTL (0 disables)")
		cacheMaxB   = flag.Int64("cache-max-bytes", 0, "response-cache total byte budget (0 = 256 MiB)")
		refreshFrac = flag.Float64("refresh-ahead", 0, "refresh-ahead threshold as a fraction of entry TTL: hot cached answers past it are re-collected in the background so they never expire under load (e.g. 0.8; 0 disables)")
		clusterMem  = flag.String("cluster-members", "", "comma-separated backend gatekeeper addresses: run as a consistent-hash routing proxy over them instead of a gatekeeper")
		clusterFail = flag.Int("cluster-fail-threshold", 0, "consecutive forward failures that eject a member from routing until a probe readmits it (0 = 3)")
		clusterPrb  = flag.Duration("cluster-probe-interval", 0, "how often ejected members are pinged for readmission (0 = 2s)")
		follow      = flag.String("follow", "", "run as a hot-standby follower of this leader gatekeeper: replicate its journal records into a local journal in -state-dir and wait for promotion")
		promote     = flag.Bool("promote", false, "with -follow: promote automatically (boot as the gatekeeper from the replicated journal) once the leader is lost; SIGUSR1 promotes on demand either way")
		faults      = flag.String("faultpoints", os.Getenv("INFOGRAM_FAULTPOINTS"),
			"arm fault-injection failpoints, e.g. 'wire.read=delay(100ms),provider.collect=hang' (also via INFOGRAM_FAULTPOINTS)")
	)
	flag.Parse()

	fabric, err := bootstrap.SelfSigned(*fabricDir)
	if err != nil {
		log.Fatalf("fabric: %v", err)
	}

	if *clusterMem != "" {
		runProxy(fabric, *addr, *clusterMem, *clusterFail, *clusterPrb, *reqTO, *metrics)
		return
	}
	if *follow != "" {
		if *stateDir == "" {
			log.Fatal("follow: -state-dir is required (the follower keeps its journal there)")
		}
		if !runFollower(fabric, *follow, *stateDir, *promote) {
			return
		}
		// Promoted: fall through into the ordinary gatekeeper boot. The
		// journal replay below recovers the replicated state and resubmits
		// unfinished jobs — the same path a crash restart takes.
		fmt.Printf("infogram: promoting to gatekeeper from replicated journal in %s\n", *stateDir)
	}

	var quota *gsi.Policy
	if *quotaPath != "" {
		quota, err = gsi.LoadContracts(*quotaPath)
		if err != nil {
			log.Fatalf("quota: %v", err)
		}
	}
	name := *resource
	if name == "" {
		name, _ = os.Hostname()
		if name == "" {
			name = "localhost"
		}
	}

	registry := provider.NewRegistry(nil)
	confMgr := config.NewManager(registry)
	if *confPath != "" {
		if _, _, err := confMgr.LoadFile(*confPath); err != nil {
			log.Fatalf("config: %v", err)
		}
	} else {
		registry.Register(provider.RuntimeProvider{}, provider.RegisterOptions{TTL: 0})
	}

	var logger *logging.Logger
	if *logPath != "" {
		logger, err = logging.OpenFile(*logPath)
		if err != nil {
			log.Fatalf("log: %v", err)
		}
		defer logger.Close()
	}

	mode := scheduler.TrustedMode
	if *sandbox {
		mode = scheduler.RestrictedMode
	}
	fn := scheduler.NewFunc(mode, scheduler.Budgets{})

	tel := telemetry.NewRegistry()
	faultinject.SetTelemetry(tel)
	if *faults != "" {
		if err := faultinject.ArmSpec(*faults); err != nil {
			log.Fatalf("faultpoints: %v", err)
		}
		fmt.Printf("infogram: fault injection armed: %v\n", faultinject.Armed())
	}
	var (
		jnl       *journal.Journal
		recovered *journal.Recovered
		replayed  int // jobs the journal replayed into its table
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
		replayed = jnl.Table().Len()
		if recovered.TornTail {
			log.Printf("journal: torn record at the tail of the newest segment was discarded")
		}
	}

	queue := scheduler.NewQueue(scheduler.QueueConfig{
		Name:            "pbs",
		Slots:           scheduler.BatchSlots,
		Policy:          scheduler.FIFO{},
		Executor:        &scheduler.Fork{},
		DepthGauge:      tel.Gauge("infogram_queue_depth", "tasks pending in the batch queue"),
		DispatchLatency: tel.Histogram("infogram_queue_dispatch_seconds", "enqueue-to-dispatch wait per task"),
	})

	svc := core.NewService(core.Config{
		ResourceName: name,
		Credential:   fabric.Service,
		Trust:        fabric.Trust,
		Gridmap:      fabric.Gridmap,
		Registry:     registry,
		Backends: gram.Backends{
			Exec:  &scheduler.Fork{},
			Func:  fn,
			Queue: queue,
		},
		Log:             logger,
		Journal:         jnl,
		Telemetry:       tel,
		TraceOptions:    telemetry.TracerOptionsFromFlags(*traceSample, *traceSlow),
		RequestTimeout:  *reqTO,
		ProviderTimeout: *provTO,
		Quota:           quota,
		MaxInflight:     *maxInflight,
		ShedQueue:       *shedQueue,
		QueueTimeout:    *queueTO,
		SubmitBacklog:   *submitBL,
		CacheTTL:        *cacheTTL,
		CacheMaxBytes:   *cacheMaxB,
		RefreshAhead:    *refreshFrac,
	})
	if *stateDir != "" {
		cache := svc.NewPersister(filepath.Join(*stateDir, "respcache.snap"))
		if st, err := cache.Start(); err != nil {
			log.Printf("response cache: cold start: %v", err)
		} else if st.Restored > 0 {
			fmt.Printf("infogram: response cache restored %d entries\n", st.Restored)
		}
		defer cache.Close() // after svc.Close: the final snapshot holds the last state
	}
	bound, err := svc.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer svc.Close()
	fmt.Printf("infogram: resource %q serving on %s (%d providers, sandbox %s)\n",
		name, bound, registry.Len(), mode)

	if replayed > 0 {
		resumed, failed, err := svc.RecoverJournal(recovered)
		if err != nil {
			log.Printf("recover: %v", err)
		}
		fmt.Printf("infogram: journal replayed %d job(s) from %s (%d resumed)", replayed, *stateDir, len(resumed))
		if len(failed) > 0 {
			fmt.Printf(", %d failed at recovery: %s", len(failed), strings.Join(failed, " "))
		}
		fmt.Println()
	}

	if *metrics != "" {
		mux := telemetry.NewDebugMux(tel, svc.Tracer())
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		metricsSrv := session.NewHTTPServer(mux)
		go func() { _ = metricsSrv.Serve(ln) }()
		defer metricsSrv.Close()
		fmt.Printf("infogram: Prometheus metrics on http://%s/metrics (traces at /debug/traces, profiles at /debug/pprof)\n", ln.Addr())
	}

	if *mdsAddr != "" {
		gris := svc.GRIS()
		grisBound, err := gris.Listen(*mdsAddr)
		if err != nil {
			log.Fatalf("mds listen: %v", err)
		}
		defer gris.Close()
		fmt.Printf("infogram: MDS-compatible GRIS on %s\n", grisBound)
	}

	if *wsAddr != "" {
		gw := wsgw.New(wsgw.Config{
			Backend:    bound,
			Credential: fabric.User, // the gateway bridges web clients under its grid identity
			Trust:      fabric.Trust,
			Token:      *wsToken,
		})
		defer gw.Close()
		ln, err := net.Listen("tcp", *wsAddr)
		if err != nil {
			log.Fatalf("ws listen: %v", err)
		}
		httpSrv := session.NewHTTPServer(gw)
		go func() { _ = httpSrv.Serve(ln) }()
		defer httpSrv.Close()
		fmt.Printf("infogram: Web-services gateway on http://%s (GET ?wsdl for the description)\n", ln.Addr())
	}

	// SIGHUP hot-reloads the provider configuration (§6.2.1).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP && *confPath != "" {
			updated, removed, err := confMgr.LoadFile(*confPath)
			if err != nil {
				log.Printf("reload: %v", err)
				continue
			}
			fmt.Printf("infogram: configuration reloaded (%d updated, %d removed)\n", updated, removed)
			continue
		}
		break
	}
	fmt.Println("infogram: shutting down")
}

// runProxy serves the cluster routing tier: no providers, no jobs, no
// state — just the consistent-hash router over the configured backends.
func runProxy(fabric *bootstrap.Fabric, addr, members string, failThresh int, probeInt, reqTO time.Duration, metricsAddr string) {
	var backends []string
	for _, m := range strings.Split(members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			backends = append(backends, m)
		}
	}
	if len(backends) == 0 {
		log.Fatal("cluster: -cluster-members lists no addresses")
	}

	tel := telemetry.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Members:       backends,
		Cred:          fabric.Service,
		Trust:         fabric.Trust,
		FailThreshold: failThresh,
		ProbeInterval: probeInt,
		Telemetry:     tel,
	})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer router.Close()

	proxy := cluster.NewProxy(cluster.ProxyConfig{
		Credential:     fabric.Service,
		Trust:          fabric.Trust,
		Router:         router,
		RequestTimeout: reqTO,
		Telemetry:      tel,
	})
	bound, err := proxy.Listen(addr)
	if err != nil {
		log.Fatalf("cluster listen: %v", err)
	}
	defer proxy.Close()
	fmt.Printf("infogram: cluster proxy on %s routing %d member(s): %s\n",
		bound, len(backends), strings.Join(backends, ", "))

	if metricsAddr != "" {
		mux := telemetry.NewDebugMux(tel, nil)
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		metricsSrv := session.NewHTTPServer(mux)
		go func() { _ = metricsSrv.Serve(ln) }()
		defer metricsSrv.Close()
		fmt.Printf("infogram: Prometheus metrics on http://%s/metrics\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("infogram: shutting down")
}

// runFollower replicates the leader's journal into stateDir until the
// process is stopped or a promotion fires. It returns true when the
// caller should boot as the gatekeeper from the replicated journal —
// either SIGUSR1 arrived, or -promote is set and the leader was declared
// lost — and false on an ordinary shutdown.
func runFollower(fabric *bootstrap.Fabric, leader, stateDir string, autoPromote bool) bool {
	tel := telemetry.NewRegistry()
	fl := cluster.NewFollower(cluster.FollowerConfig{
		Leader:     leader,
		Dir:        stateDir,
		Credential: fabric.Service,
		Trust:      fabric.Trust,
		Telemetry:  tel,
	})
	fl.Start()
	fmt.Printf("infogram: following %s, replicating its journal into %s (SIGUSR1 promotes)\n", leader, stateDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	defer signal.Stop(sig)
	// Synced and LeaderLost are closed-once channels: after the first
	// receive each case is nil'd out so a closed channel cannot spin the
	// select.
	synced, lost := fl.Synced(), fl.LeaderLost()
	for {
		select {
		case <-synced:
			fmt.Printf("infogram: follower synced with %s\n", leader)
			synced = nil
		case <-lost:
			if autoPromote {
				fl.Stop()
				return true
			}
			fmt.Printf("infogram: leader %s lost; still retrying (no -promote; SIGUSR1 to take over)\n", leader)
			lost = nil
		case s := <-sig:
			fl.Stop()
			return s == syscall.SIGUSR1
		}
	}
}
