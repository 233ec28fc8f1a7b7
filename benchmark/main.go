// Command benchmark is the repository's fixed performance suite: six named
// workloads, seven end-to-end metrics, and a per-layer budget, printed by
// one command. See README.md for what each workload and metric means.
//
// With -workload it runs that workload once in this process and prints one
// JSON result line (the form BENCHMARK.json's driver uses). Without it, it
// re-executes itself once per workload and pass in a fresh child process
// and prints every metric of every workload as one JSON document.
//
// The services run in this process on loopback TCP, with no failpoint
// armed; client and server share the process and its CPUs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

var (
	flagWorkload   = flag.String("workload", "", "run only this workload, in this process, and print one result line")
	flagSeed       = flag.Int64("seed", 1, "seed for every generated key, mix and job argument")
	flagSeconds    = flag.Int("seconds", runSeconds, "measured seconds per pass")
	flagTrace      = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced pass")
	flagAA         = flag.Bool("aa", false, "run the suite twice on the same code and compare the two against the bounds")
	flagSpec       = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flagOut        = flag.String("out", "out", "directory for traces, profiles and temporary state")
	flagCPUProfile = flag.String("cpuprofile", "", "write a CPU profile of the measured pass to this file under -out")
	flagMemProfile = flag.String("memprofile", "", "write an allocation profile after the measured pass to this file under -out")
)

// setupRepeats is how many times one run sets the workload up; setup_s is
// the median, and the last set-up is the one measured against.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one line a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one run's settings, as the flags give them.
type options struct {
	seed       int64
	pass       time.Duration // measured length of a pass
	traced     bool
	setups     int // how many times to set up; the last one is measured
	outDir     string
	cpuProfile string
	memProfile string
}

func main() {
	flag.Parse()
	switch {
	case *flagSpec:
		os.Stdout.Write(benchmarkJSON())
	case *flagWorkload != "":
		if *flagSeconds < 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
			os.Exit(2)
		}
		o := options{seed: *flagSeed, pass: time.Duration(*flagSeconds) * time.Second, traced: *flagTrace == 1,
			setups: setupRepeats, outDir: *flagOut, cpuProfile: *flagCPUProfile, memProfile: *flagMemProfile}
		if o.traced {
			o.setups = 1 // setup_s is an end-to-end metric; the traced pass does not report it
		}
		res, err := runWorkload(*flagWorkload, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	case *flagAA:
		os.Exit(runAA())
	default:
		os.Exit(runSuite())
	}
}

// runWorkload sets name up, measures one pass, and reduces it to metrics.
func runWorkload(name string, o options) (*result, error) {
	w, setupS, err := setUp(name, o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if o.traced {
		return tracedRun(w, o)
	}
	return untracedRun(w, o, setupS)
}

// setUp sets name up o.setups times, closing all but the last, and returns
// the last with how long each took.
func setUp(name string, o options) (w *workloadRun, setupS []float64, err error) {
	setup, ok := setups[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	e := env{seed: o.seed, nproc: runtime.NumCPU(), outDir: o.outDir}
	for i := 0; i < o.setups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		if w, err = setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	return w, setupS, nil
}

// untracedRun produces the end-to-end metrics: one pass with tracing off.
func untracedRun(w *workloadRun, o options, setupS []float64) (*result, error) {
	stop, err := startCPUProfile(o)
	if err != nil {
		return nil, err
	}
	pass := runPass(w, o.pass, false)
	stop()
	if err := writeMemProfile(o); err != nil {
		return nil, err
	}
	if len(pass.samples) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	stats, q := windowStats(pass.samples, pass.marks)
	ops := pass.ops()
	values := map[string]float64{
		mOps:     bestQuarterOf(stats, true, func(w windowStat) float64 { return w.opsPerS }),
		mP50:     bestQuarterOf(stats, false, func(w windowStat) float64 { return w.p50NS }) / 1e3,
		mCPU:     bestQuarterOf(stats, false, func(w windowStat) float64 { return w.cpuPerOp }),
		mAllocs:  float64(pass.mallocs) / ops,
		mBytes:   float64(pass.bytes) / ops,
		mSetup:   median(setupS),
		mPeakRSS: peakRSSMiB(),
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d samples in %.2f s over loopback, %d callers, %d windows of %v; median window: %.0f ops/s, p50 %.1f us, p%.4g %.0f us, cpu %.1f us/op\n",
		w.name, o.seed, len(pass.samples), pass.seconds, w.callers, len(stats), p99Window,
		medianOf(stats, func(w windowStat) float64 { return w.opsPerS }),
		medianOf(stats, func(w windowStat) float64 { return w.p50NS })/1e3,
		q*100, tailUS(stats),
		medianOf(stats, func(w windowStat) float64 { return w.cpuPerOp }))
	res := &result{Correct: pass.failed == 0, Attempted: pass.attempted, Failed: pass.failed, Metrics: map[string]metricValue{}}
	for _, s := range endToEndSpecs {
		res.Metrics[s.Name] = metricValue{values[s.Name], s.Unit}
	}
	return res, nil
}

// tailUS is the median over windows of each window's tail latency, in
// microseconds.
func tailUS(stats []windowStat) float64 {
	return medianOf(stats, func(w windowStat) float64 { return w.tailNS }) / 1e3
}

// tracedRun produces the per-layer metrics: a short untraced reference
// pass, then the traced pass, with the layer counters read on either side
// of it. The spans go to <out>/trace-<workload>.jsonl.
func tracedRun(w *workloadRun, o options) (*result, error) {
	ref := runPass(w, o.pass/4, false)
	before := w.counters()
	pass := runPass(w, o.pass, true)
	delta := w.counters().since(before)
	if len(pass.samples) == 0 || len(ref.samples) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	if err := writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"), pass.spans); err != nil {
		return nil, err
	}
	ops := pass.ops()
	m := make(map[string]float64)
	for name, vs := range pass.obs {
		m[name] = median(vs)
	}
	roundtrip, layers, residual := layerBudget(pass.spans, w.rootName)
	m["core.roundtrip_us"], m["core.layers_us"], m["core.residual_us"] = roundtrip/1e3, layers/1e3, residual/1e3
	m["gram.status_polls_per_job"] = float64(pass.polls) / ops
	w.layers(delta, ops, m)

	stats, q := windowStats(pass.samples, pass.marks)
	sort.Slice(pass.lagNS, func(i, j int) bool { return pass.lagNS[i] < pass.lagNS[j] })
	m["driver.sched_lag_p99_us"] = float64(percentile(pass.lagNS, 0.99)) / 1e3
	m["driver.overruns"] = float64(pass.overruns)
	m["driver.trace_overhead_ratio"] = (ops / pass.seconds) / (ref.ops() / ref.seconds)
	m["driver.samples"] = ops
	m["driver.fail_ratio"] = float64(pass.failed) / float64(pass.attempted)
	m["driver.p99_us"] = tailUS(stats)
	m["driver.tail_quantile"] = q
	if m["driver.sched_lag_p99_us"] > 1000 || m["driver.trace_overhead_ratio"] < 0.8 {
		fmt.Fprintf(os.Stderr, "%s: SUSPECT run: scheduler lag p99 %.0f us, trace overhead ratio %.2f\n",
			w.name, m["driver.sched_lag_p99_us"], m["driver.trace_overhead_ratio"])
	}
	res := &result{Correct: pass.failed == 0, Attempted: pass.attempted, Failed: pass.failed, Metrics: map[string]metricValue{}}
	for _, s := range layerSpecs {
		res.Metrics[s.Name] = metricValue{m[s.Name], s.Unit}
	}
	return res, nil
}

func startCPUProfile(o options) (stop func(), err error) {
	if o.cpuProfile == "" {
		return func() {}, nil
	}
	f, err := os.Create(filepath.Join(o.outDir, filepath.Base(o.cpuProfile)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() { pprof.StopCPUProfile(); f.Close() }, nil
}

func writeMemProfile(o options) error {
	if o.memProfile == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(o.outDir, filepath.Base(o.memProfile)))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// child runs one workload and pass in a fresh process and parses the
// result line it prints last.
func child(workload string, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(*flagSeed, 10), "-seconds", strconv.Itoa(*flagSeconds),
		"-out", *flagOut)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// suiteResult is one workload's part of the suite's report.
type suiteResult struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// measureSuite runs every workload's untraced pass and, with layers set,
// its traced pass, each in its own child process.
func measureSuite(layers bool) (map[string]*suiteResult, error) {
	out := make(map[string]*suiteResult)
	for _, ws := range workloadSpecs {
		e2e, err := child(ws.Name, 0)
		if err != nil {
			return nil, err
		}
		sr := &suiteResult{Attempted: e2e.Attempted, Failed: e2e.Failed, EndToEnd: e2e.Metrics}
		if layers {
			traced, err := child(ws.Name, 1)
			if err != nil {
				return nil, err
			}
			sr.PerLayer = traced.Metrics
			sr.Failed += traced.Failed
		}
		out[ws.Name] = sr
	}
	return out, nil
}

// runSuite prints every metric of every workload as one JSON document and
// returns the exit code: non-zero when any operation failed.
func runSuite() int {
	results, err := measureSuite(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	doc := struct {
		Seed      int64                   `json:"seed"`
		Seconds   int                     `json:"seconds"`
		CPUs      int                     `json:"cpus"`
		Transport string                  `json:"transport"`
		Workloads map[string]*suiteResult `json:"workloads"`
	}{*flagSeed, *flagSeconds, runtime.NumCPU(),
		"host loopback TCP; client and server share one process", results}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
	code := 0
	for name, r := range results {
		if r.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", name, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code
}

// runAA measures the suite twice on the same code and prints, per workload
// and end-to-end metric, how far the second run is worse than the first
// against the metric's bound. A breach in either direction makes the exit
// code non-zero: the bounds only mean something if the same code stays
// inside them.
func runAA() int {
	a, err := measureSuite(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := measureSuite(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	fmt.Printf("| %-13s | %-13s | %12s | %12s | %7s | %5s |\n", "workload", "metric", "run A", "run B", "worse", "bound")
	fmt.Println("|---|---|---|---|---|---|")
	for _, ws := range workloadSpecs {
		for _, ms := range endToEndSpecs {
			va, vb := a[ws.Name].EndToEnd[ms.Name].Value, b[ws.Name].EndToEnd[ms.Name].Value
			worse := worseBy(va, vb, ms.Better)
			mark := ""
			if max(worse, worseBy(vb, va, ms.Better)) > ms.Bound {
				mark = " BREACH"
				code = 1
			}
			fmt.Printf("| %-13s | %-13s | %12.4g | %12.4g | %+6.1f%% | %4.0f%% |%s\n",
				ws.Name, ms.Name, va, vb, worse*100, ms.Bound*100, mark)
		}
		if a[ws.Name].Failed+b[ws.Name].Failed > 0 {
			fmt.Printf("%s: operations failed\n", ws.Name)
			code = 1
		}
	}
	return code
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
