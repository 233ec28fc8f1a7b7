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

	"infogram/internal/bootstrap"
	"infogram/internal/bytecache"
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
		stateDir    = flag.String("state-dir", "", "durable cache-state directory: the GRIS (and GIIS) response caches snapshot here every minute and on shutdown, and restore warm on restart (needs -cache-ttl; empty = memory only)")
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
		if _, _, err := config.NewManager(registry).LoadFile(*confPath); err != nil {
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
		p := gris.NewPersister(filepath.Join(*stateDir, "gris.snap"))
		startPersister(p, "GRIS")
		defer p.Close()
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
			p := giis.NewPersister(filepath.Join(*stateDir, "giis.snap"))
			startPersister(p, "GIIS")
			defer p.Close()
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

// startPersister restores a tier's cache snapshot and starts its
// background snapshots; a nil persister (cache disabled) does nothing.
func startPersister(p *bytecache.Persister, tier string) {
	if st, err := p.Start(); err != nil {
		log.Printf("%s cache: cold start: %v", strings.ToLower(tier), err)
	} else if st.Restored > 0 {
		fmt.Printf("mds: %s cache restored %d entries\n", tier, st.Restored)
	}
}
