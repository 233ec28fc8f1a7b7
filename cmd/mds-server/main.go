// Command mds-server runs the baseline MDS information services of paper
// §3: a GRIS for this resource and, optionally, a GIIS aggregate for a
// virtual organization. Together with gram-server it forms the
// two-protocol Figure 2 deployment that InfoGram replaces.
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
	"infogram/internal/config"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/session"
	"infogram/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:2135", "GRIS listen address (MDS's classic port by default)")
		fabricDir   = flag.String("fabric", "./fabric", "security fabric directory")
		confPath    = flag.String("config", "", "provider configuration file (Table 1 format)")
		resource    = flag.String("resource", "", "resource name (hostname when empty)")
		giisAddr    = flag.String("giis-addr", "", "also run a GIIS aggregate on this address")
		members     = flag.String("giis-members", "", "comma-separated GRIS addresses to pre-register in the GIIS")
		metrics     = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics, plus /debug/traces and /debug/pprof")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of healthy traces to keep (errored and slow traces are always kept; 0 keeps only those)")
		traceSlow   = flag.Duration("trace-slow", 0, "always keep traces at least this slow (0 disables the slow rule)")
		cacheTTL    = flag.Duration("cache-ttl", 0, "enable the sharded response cache: rendered LDIF bodies served zero-copy for up to this long, capped by each covered provider's TTL (0 disables)")
		cacheMaxB   = flag.Int64("cache-max-bytes", 0, "response-cache total byte budget (0 = 256 MiB)")
		stateDir    = flag.String("state-dir", "", "durable cache-state directory: the GRIS (and GIIS) response caches snapshot here and restore warm on restart (needs -cache-ttl; empty = memory only)")
		cacheSnap   = flag.Duration("cache-snapshot-interval", time.Minute, "background cache snapshot period into -state-dir (0 snapshots only on shutdown)")
		refreshFrac = flag.Float64("refresh-ahead", 0, "refresh-ahead threshold as a fraction of -cache-ttl: hot cached searches past it are re-run in the background so they never expire under load (e.g. 0.8; 0 disables)")
	)
	flag.Parse()

	fabric, err := bootstrap.SelfSigned(*fabricDir)
	if err != nil {
		log.Fatalf("fabric: %v", err)
	}
	name := *resource
	if name == "" {
		name, _ = os.Hostname()
		if name == "" {
			name = "localhost"
		}
	}

	tel := telemetry.NewRegistry()
	traceOpts := telemetry.TracerOptionsFromFlags(*traceSample, *traceSlow)
	traceOpts.Telemetry = tel
	tracer := telemetry.NewTracer(traceOpts)

	registry := provider.NewRegistry(nil)
	registry.SetTelemetry(tel)
	if *confPath != "" {
		cfg, err := config.Load(*confPath)
		if err != nil {
			log.Fatalf("config: %v", err)
		}
		if _, err := cfg.Apply(registry); err != nil {
			log.Fatalf("config: %v", err)
		}
	} else {
		registry.Register(provider.RuntimeProvider{}, provider.RegisterOptions{TTL: 0})
	}

	gris := mds.NewGRIS(mds.GRISConfig{
		ResourceName:  name,
		Registry:      registry,
		Credential:    fabric.Service,
		Trust:         fabric.Trust,
		Tracer:        tracer,
		CacheTTL:      *cacheTTL,
		CacheMaxBytes: *cacheMaxB,
		RefreshAhead:  *refreshFrac,
		Telemetry:     tel,
	})
	if *stateDir != "" {
		if p := gris.NewPersister(filepath.Join(*stateDir, "gris.snap"), *cacheSnap); p != nil {
			p.SetTelemetry(tel)
			if st, err := p.Restore(); err != nil {
				log.Printf("gris cache: cold start: %v", err)
			} else if st.Restored > 0 {
				fmt.Printf("mds: GRIS cache restored %d entries\n", st.Restored)
			}
			p.Start()
			defer p.Close()
		}
	}
	bound, err := gris.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer gris.Close()
	fmt.Printf("mds: GRIS for %q on %s\n", name, bound)

	if *giisAddr != "" {
		giis := mds.NewGIIS(mds.GIISConfig{
			OrgName:       name,
			Credential:    fabric.Service,
			Trust:         fabric.Trust,
			CacheTTL:      *cacheTTL,
			CacheMaxBytes: *cacheMaxB,
			RefreshAhead:  *refreshFrac,
			Telemetry:     tel,
		})
		giisBound, err := giis.Listen(*giisAddr)
		if err != nil {
			log.Fatalf("giis listen: %v", err)
		}
		defer giis.Close()
		giis.Register(bound)
		for _, m := range strings.Split(*members, ",") {
			if m = strings.TrimSpace(m); m != "" {
				giis.Register(m)
			}
		}
		// Restore strictly after the members are registered: the snapshot is
		// gated on a digest of the member set, so a memberless restore would
		// refuse it.
		if *stateDir != "" {
			if p := giis.NewPersister(filepath.Join(*stateDir, "giis.snap"), *cacheSnap); p != nil {
				p.SetTelemetry(tel)
				if st, err := p.Restore(); err != nil {
					log.Printf("giis cache: cold start: %v", err)
				} else if st.Restored > 0 {
					fmt.Printf("mds: GIIS cache restored %d entries\n", st.Restored)
				}
				p.Start()
				defer p.Close()
			}
		}
		fmt.Printf("mds: GIIS on %s (%d members)\n", giisBound, len(giis.Members()))
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
		fmt.Printf("mds: Prometheus metrics on http://%s/metrics (traces at /debug/traces, profiles at /debug/pprof)\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mds: shutting down")
}
