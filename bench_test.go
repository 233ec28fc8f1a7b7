// Experiment benchmarks: one benchmark per table/figure/claim of the
// paper, as indexed in DESIGN.md and reported in EXPERIMENTS.md. The paper
// has a single table (Table 1, a configuration file) and four architecture
// figures; its performance claims are qualitative, so each benchmark here
// regenerates the *shape* the paper asserts — who wins and by roughly what
// factor — on this repository's substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package infogram_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infogram/internal/config"
	"infogram/internal/core"
	"infogram/internal/diffract"
	"infogram/internal/gram"
	"infogram/internal/journal"
	"infogram/internal/ldif"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/quality"
	"infogram/internal/scheduler"
	"infogram/internal/vo"
	"infogram/internal/xmlenc"
	"infogram/internal/xrsl"
)

// ---------------------------------------------------------------------------
// E1 — Table 1: keyword -> information-provider dispatch.

func BenchmarkTable1(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := config.ParseString(config.Table1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dispatch", func(b *testing.B) {
		// A runnable variant of Table 1: same shape, real binaries.
		cfg, err := config.ParseString("60 Date date -u\n0 CPULoad cat /proc/loadavg\n1000 list /bin/ls /\n")
		if err != nil {
			b.Fatal(err)
		}
		reg := provider.NewRegistry(nil)
		if _, _, err := config.NewManager(reg).Load(cfg); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Collect(ctx, nil, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E2 — Figure 1: the GRAM three-tier submit/status/done cycle.

func BenchmarkFigure1_GRAMSubmit(b *testing.B) {
	f := newFabric(b)
	reg, _ := benchRegistry(time.Hour, 0, nil)
	gramAddr, _, _, _ := startBaseline(b, f, reg)
	cl, err := gram.Dial(gramAddr, f.user, f.trust)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contact, err := cl.Submit("&(executable=noop)(jobtype=func)")
		if err != nil {
			b.Fatal(err)
		}
		waitGRAMDone(b, cl, contact)
	}
}

// ---------------------------------------------------------------------------
// E3 vs E4 — Figure 2 vs Figure 4: the combined workflow "query CPU load,
// then submit a job". The baseline needs two services, two protocols, and
// two connections; InfoGram needs one of each.

func BenchmarkFigure2_TwoServiceWorkflow(b *testing.B) {
	f := newFabric(b)
	reg, _ := benchRegistry(100*time.Millisecond, 0, nil)
	gramAddr, grisAddr, gramSvc, gris := startBaseline(b, f, reg)

	// The Figure 2 client holds one connection per protocol.
	gcl, err := gram.Dial(gramAddr, f.user, f.trust)
	if err != nil {
		b.Fatal(err)
	}
	defer gcl.Close()
	mcl, err := mds.Dial(grisAddr, f.user, f.trust)
	if err != nil {
		b.Fatal(err)
	}
	defer mcl.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcl.Search(mds.SearchRequest{Filter: "(kw=CPULoad)"}); err != nil {
			b.Fatal(err)
		}
		contact, err := gcl.Submit("&(executable=noop)(jobtype=func)")
		if err != nil {
			b.Fatal(err)
		}
		waitGRAMDone(b, gcl, contact)
	}
	b.StopTimer()
	b.ReportMetric(float64(gramSvc.AcceptedConns()+gris.AcceptedConns()), "connections")
	b.ReportMetric(2, "protocols")
	b.ReportMetric(2, "ports")
}

func BenchmarkFigure4_InfoGramWorkflow(b *testing.B) {
	f := newFabric(b)
	reg, _ := benchRegistry(100*time.Millisecond, 0, nil)
	svc, addr := startInfoGram(b, f, reg)
	cl := dialInfoGram(b, f, addr)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.QueryRaw("&(info=CPULoad)"); err != nil {
			b.Fatal(err)
		}
		runJobToDone(b, cl, "&(executable=noop)(jobtype=func)")
	}
	b.StopTimer()
	b.ReportMetric(float64(svc.AcceptedConns()), "connections")
	b.ReportMetric(1, "protocols")
	b.ReportMetric(1, "ports")
}

// BenchmarkFigure4_MultiRequestWorkflow folds the whole workflow into one
// round trip — impossible in the two-protocol baseline.
func BenchmarkFigure4_MultiRequestWorkflow(b *testing.B) {
	f := newFabric(b)
	reg, _ := benchRegistry(100*time.Millisecond, 0, nil)
	_, addr := startInfoGram(b, f, reg)
	cl := dialInfoGram(b, f, addr)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := cl.SubmitMulti("+(&(info=CPULoad))(&(executable=noop)(jobtype=func))")
		if err != nil {
			b.Fatal(err)
		}
		if len(parts) != 2 {
			b.Fatalf("parts = %d", len(parts))
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — §5.1: caching CPU load vs executing the provider on every request,
// across client counts and TTLs. The paper's claim: "It would be wasteful
// to execute the command requesting the load every single time."

func BenchmarkE5_CachedVsExecEveryTime(b *testing.B) {
	// The provider costs 2 ms to execute, a cheap stand-in for running
	// /usr/local/bin/cpuload.exe.
	const execCost = 2 * time.Millisecond
	for _, ttl := range []time.Duration{0, 100 * time.Millisecond, time.Second} {
		for _, clients := range []int{1, 8, 64} {
			name := fmt.Sprintf("ttl=%s/clients=%d", ttlName(ttl), clients)
			b.Run(name, func(b *testing.B) {
				f := newFabric(b)
				reg, execs := benchRegistry(ttl, execCost, nil)
				_, addr := startInfoGram(b, f, reg)

				conns := make([]*core.Client, clients)
				for i := range conns {
					conns[i] = dialInfoGram(b, f, addr)
				}
				var next atomic.Int64
				b.ResetTimer()
				b.SetParallelism(clients)
				b.RunParallel(func(pb *testing.PB) {
					cl := conns[int(next.Add(1))%clients]
					for pb.Next() {
						if _, err := cl.QueryRaw("&(info=CPULoad)"); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(execs.Load())/float64(b.N), "execs/op")
			})
		}
	}
}

func ttlName(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	return d.String()
}

// ---------------------------------------------------------------------------
// E6 — §6.5 response tag: per-mode read latency.

func BenchmarkE6_ResponseModes(b *testing.B) {
	const execCost = 2 * time.Millisecond
	for _, mode := range []string{"cached", "immediate", "last"} {
		b.Run(mode, func(b *testing.B) {
			f := newFabric(b)
			reg, execs := benchRegistry(time.Hour, execCost, nil)
			_, addr := startInfoGram(b, f, reg)
			cl := dialInfoGram(b, f, addr)
			// Prime the cache so "last" has something to return.
			if _, err := cl.QueryRaw("&(info=CPULoad)(response=immediate)"); err != nil {
				b.Fatal(err)
			}
			src := "&(info=CPULoad)(response=" + mode + ")"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.QueryRaw(src); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(execs.Load())/float64(b.N), "execs/op")
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — §5.2/§6.3: quality thresholds trade staleness against provider
// executions. Higher thresholds refresh more.

func BenchmarkE7_QualityDegradation(b *testing.B) {
	const execCost = time.Millisecond
	for _, threshold := range []int{0, 50, 90, 99} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			f := newFabric(b)
			// Quality decays linearly to zero over 50 ms; TTL alone would
			// keep values for an hour.
			reg, execs := benchRegistry(time.Hour, execCost, quality.Linear{Horizon: 50 * time.Millisecond})
			_, addr := startInfoGram(b, f, reg)
			cl := dialInfoGram(b, f, addr)
			src := fmt.Sprintf("&(info=CPULoad)(quality=%d)", threshold)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.QueryRaw(src); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(execs.Load())/float64(b.N), "execs/op")
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — §6.5 performance tag: cost of carrying retrieval statistics.

func BenchmarkE8_PerformanceTag(b *testing.B) {
	for _, tag := range []bool{false, true} {
		b.Run(fmt.Sprintf("performance=%v", tag), func(b *testing.B) {
			f := newFabric(b)
			reg, _ := benchRegistry(time.Hour, 0, nil)
			_, addr := startInfoGram(b, f, reg)
			cl := dialInfoGram(b, f, addr)
			src := "&(info=CPULoad)"
			if tag {
				src += "(performance=true)"
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.QueryRaw(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — §6.4 reflection: schema query across registry sizes.

func BenchmarkE9_SchemaQuery(b *testing.B) {
	for _, n := range []int{4, 32} {
		b.Run(fmt.Sprintf("providers=%d", n), func(b *testing.B) {
			f := newFabric(b)
			reg := provider.NewRegistry(nil)
			for i := 0; i < n; i++ {
				fp := provider.NewFuncProvider(fmt.Sprintf("Kw%02d", i),
					func(ctx context.Context) (provider.Attributes, error) {
						return provider.Attributes{{Name: "v", Value: "1"}}, nil
					})
				fp.Schemas = []provider.AttrSchema{{Name: "v", Type: "int", Doc: "value"}}
				reg.Register(fp, provider.RegisterOptions{TTL: time.Second})
			}
			_, addr := startInfoGram(b, f, reg)
			cl := dialInfoGram(b, f, addr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.QueryRaw("(info=schema)"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E10 — §5.5/§6.5 format tag: LDIF vs XML encode throughput and size.

func BenchmarkE10_FormatLDIFvsXML(b *testing.B) {
	for _, n := range []int{5, 50} {
		reports := mkEntriesSpec(n)
		entries := provider.ReportEntries("bench.resource", reports)
		b.Run(fmt.Sprintf("ldif/entries=%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				s, err := ldif.Marshal(entries)
				if err != nil {
					b.Fatal(err)
				}
				size = len(s)
			}
			b.ReportMetric(float64(size), "bytes")
		})
		b.Run(fmt.Sprintf("xml/entries=%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				s, err := xmlenc.Marshal(entries)
				if err != nil {
					b.Fatal(err)
				}
				size = len(s)
			}
			b.ReportMetric(float64(size), "bytes")
		})
	}
}

// ---------------------------------------------------------------------------
// E11 — §6/§6.1: restart cost. The journal is the one restart source, so
// this times journal.Open replaying a state directory into the job table
// recovery resubmits from.

func BenchmarkE11_JournalReplay(b *testing.B) {
	for _, jobs := range []int{100, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			// One pristine directory, written the way the job manager
			// journals: a submit per job, and a DONE for every other one.
			// The first-attempt PENDING/ACTIVE records are recovery-neutral
			// and never journaled.
			pristine := b.TempDir()
			jnl, _, err := journal.Open(journal.Options{Dir: pristine, Fsync: journal.FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			now := time.Now().UnixNano()
			exit, stdout := 0, "done"
			for i := 0; i < jobs; i++ {
				contact := fmt.Sprintf("gram://bench/%d/%d", i, i)
				_ = jnl.Append(ctx, journal.Entry{Kind: journal.KindSubmit, Time: now, Contact: contact,
					Spec: "&(executable=noop)(jobtype=func)", Owner: "bench", Identity: "/O=Grid/CN=bench-user"})
				if i%2 == 0 {
					_ = jnl.Append(ctx, journal.Entry{Kind: journal.KindState, Time: now, Contact: contact,
						State: "DONE", ExitCode: &exit, Stdout: &stdout})
				}
			}
			if err := jnl.Close(); err != nil {
				b.Fatal(err)
			}
			files, err := os.ReadDir(pristine)
			if err != nil {
				b.Fatal(err)
			}
			// Each Open starts a fresh segment, so every iteration replays
			// a copy of the pristine directory.
			work := b.TempDir()
			reset := func() {
				olds, _ := os.ReadDir(work)
				for _, f := range olds {
					_ = os.Remove(filepath.Join(work, f.Name()))
				}
				for _, f := range files {
					raw, err := os.ReadFile(filepath.Join(pristine, f.Name()))
					if err == nil {
						err = os.WriteFile(filepath.Join(work, f.Name()), raw, 0o644)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reset()
				b.StartTimer()
				jnl, rec, err := journal.Open(journal.Options{Dir: work, Fsync: journal.FsyncNever})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := jnl.Table().Len(); n != jobs || len(rec.Unfinished) != jobs/2 {
					b.Fatalf("replayed %d jobs, %d unfinished", n, len(rec.Unfinished))
				}
				_ = jnl.Close()
				b.StartTimer()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E12 — §5.3: GSI mutual-authentication handshake cost, by delegation
// depth of the client's proxy chain.

func BenchmarkE12_GSIHandshake(b *testing.B) {
	f := newFabric(b)
	reg, _ := benchRegistry(time.Hour, 0, nil)
	_, addr := startInfoGram(b, f, reg)

	for _, depth := range []int{0, 1, 3} {
		cred := f.user
		now := time.Now()
		for i := 0; i < depth; i++ {
			next, err := cred.Delegate(time.Hour, now)
			if err != nil {
				b.Fatal(err)
			}
			cred = next
		}
		b.Run(fmt.Sprintf("proxyDepth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cl, err := core.Dial(addr, cred, f.trust)
				if err != nil {
					b.Fatal(err)
				}
				cl.Close()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E13 — §7: trusted vs restricted in-process execution cost.

func BenchmarkE13_SandboxModes(b *testing.B) {
	work := func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
		for i := 0; i < 1000; i++ {
			if err := sb.Step(); err != nil {
				return "", err
			}
		}
		return "", nil
	}
	for _, mode := range []scheduler.ExecMode{scheduler.TrustedMode, scheduler.RestrictedMode} {
		b.Run(mode.String(), func(b *testing.B) {
			fn := scheduler.NewFunc(mode, scheduler.Budgets{Steps: 1 << 30, AllocBytes: 1 << 30, WallTime: time.Minute})
			fn.RegisterFunc("work", work)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := fn.Submit(ctx, scheduler.Task{Executable: "work"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E14 — §8: one brokered diffraction-analysis job across a sporadic grid,
// end to end (load query + placement + execution + result parse).

func BenchmarkE14_SporadicGrid(b *testing.B) {
	grid, err := vo.NewSporadicGrid(vo.SporadicConfig{
		OrgName:   "bench.org",
		Resources: 3,
		LoadTTL:   50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer grid.Close()
	broker := vo.NewBroker(grid.Addrs(), grid.AnyCredential(), grid.Trust)
	defer broker.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := broker.Run(ctx, xrsl.JobRequest{
			Executable: vo.AnalysisJobName,
			Arguments:  diffract.EncodeArgs(i%16, (i/16)%16, 16, 16, 7),
			JobType:    "func",
		}, 0, 50)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(p.Status.Stdout, "phase=") {
			b.Fatalf("stdout = %q", p.Status.Stdout)
		}
	}
}

// ---------------------------------------------------------------------------
// E15 — §2: the same job stream through each backend. Reported queue-wait
// means show the policy differences.

func BenchmarkE15_SchedulerBackends(b *testing.B) {
	mk := func() *scheduler.Func {
		fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
		fn.RegisterFunc("task", func(ctx context.Context, sb *scheduler.Sandbox, args []string, stdin string) (string, error) {
			return "", nil
		})
		return fn
	}
	type backendCase struct {
		name string
		mkB  func() scheduler.Backend
	}
	cases := []backendCase{
		{"func", func() scheduler.Backend { return mk() }},
		{"pbs-fifo", func() scheduler.Backend { return scheduler.NewPBS(4, nil, mk()) }},
		{"lsf-fairshare", func() scheduler.Backend { return scheduler.NewLSF(4, mk()) }},
		{"condor-matchmaker", func() scheduler.Backend {
			return scheduler.NewCondor([]scheduler.Machine{
				{Name: "m1", Attrs: map[string]string{"os": "linux"}, Slots: 2},
				{Name: "m2", Attrs: map[string]string{"os": "linux"}, Slots: 2},
			}, mk())
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			backend := c.mkB()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := backend.Submit(ctx, scheduler.Task{
					Executable: "task", Owner: fmt.Sprintf("user%d", i%4),
					Requirements: map[string]string{"os": "linux"},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if q, ok := backend.(*scheduler.Queue); ok {
				b.ReportMetric(q.WaitStats().Mean().Seconds()*1e6, "queueWait-us")
			}
		})
	}
}

// BenchmarkE15_ForkBackend measures real process execution separately (it
// is orders of magnitude above the in-process paths).
func BenchmarkE15_ForkBackend(b *testing.B) {
	f := &scheduler.Fork{}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := f.Submit(ctx, scheduler.Task{Executable: "/bin/true"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E17 — §3/§6.5 MDS backward compatibility: a GIIS query resolved through
// an InfoGram-backed GRIS.

func BenchmarkE17_GIISThroughInfoGram(b *testing.B) {
	f := newFabric(b)
	reg, _ := benchRegistry(time.Second, 0, nil)
	svc, _ := startInfoGram(b, f, reg)

	gris := svc.GRIS()
	grisAddr, err := gris.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer gris.Close()
	giis := mds.NewGIIS(mds.GIISConfig{OrgName: "bench", Credential: f.svcCred, Trust: f.trust})
	giisAddr, err := giis.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer giis.Close()
	giis.Register(grisAddr)

	cl, err := mds.Dial(giisAddr, f.user, f.trust)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := cl.Search(mds.SearchRequest{Filter: "(kw=CPULoad)"})
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != 1 {
			b.Fatalf("entries = %d", len(entries))
		}
	}
}

// ---------------------------------------------------------------------------
// Protocol microbenchmarks: xRSL parse and the two wire codecs.

func BenchmarkXRSLDecode(b *testing.B) {
	srcs := map[string]string{
		"job":  `&(executable=/bin/app)(arguments=a b c)(count=2)(environment=(A 1)(B 2))(maxtime=5)`,
		"info": `&(info=Memory)(info=CPU)(response=cached)(quality=80)(format=xml)`,
	}
	for name, src := range srcs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := xrsl.Decode(src, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
