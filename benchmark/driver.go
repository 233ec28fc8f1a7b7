package main

import (
	"bufio"
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"infogram/internal/ldif"
)

// The suite owns its load driver: internal/loadgen takes no seed. A closed
// loop has each caller send its next request when the previous one
// completed; the open loop sends on a fixed schedule whatever the service
// does, and times each request from when it was due.

const (
	// replayEvery is the traced pass's sampling: one request in 64 has its
	// bytes replayed through each layer as child spans.
	replayEvery = 64
	// requestTimeout bounds an open-loop request; a request that misses it
	// counts as failed.
	requestTimeout = 5 * time.Second
	// maxInflight bounds the open loop's outstanding requests; an arrival
	// beyond it is an overrun: counted as failed, never sent.
	maxInflight = 4096
	// p99Window is the window of the windowed tail latency.
	p99Window = time.Second
)

// caller is one closed-loop caller (or one open-loop request's context):
// its request stream, its span buffer, and the record of its last
// operation that the traced pass replays.
type caller struct {
	idx  int
	gen  *generator
	log  *spanLog // nil when tracing is off
	obs  observations
	last lastOp
}

// lastOp is what an operation leaves behind for the replay: the bytes it
// exchanged and the real sub-intervals it timed.
type lastOp struct {
	req     request
	body    string       // response body (LDIF) or job contact
	entries []ldif.Entry // decoded search answer, when there is no body
	polls   int          // STATUS polls of a job cycle
	// marks are the durations of the operation's real sub-intervals, in
	// order, in nanoseconds.
	marks [3]int64
}

// workloadRun is one set-up workload, ready to be driven.
type workloadRun struct {
	name string
	// rate, when positive, makes the workload an open loop of that many
	// evenly spaced arrivals per second; zero is a closed loop of callers
	// callers.
	rate    int
	callers int
	// rootName names the root span of the operations the layer budget is
	// drawn from.
	rootName string
	// newCaller builds caller idx with its seeded request stream.
	newCaller func(idx int) *caller
	// do performs and verifies one operation. A nil error means a correct
	// answer arrived.
	do func(ctx context.Context, c *caller, r request) error
	// replay re-runs c.last's bytes through each layer's exported entry
	// points, recording child spans of root.
	replay func(c *caller, root span)
	// counters reads the cumulative layer counters; layers turns the
	// difference across a pass, and a quiescent system, into layer metrics.
	counters func() counterSnap
	layers   func(delta counterSnap, ops float64, m map[string]float64)
	close    func()
}

// passResult is what one measured pass produced.
type passResult struct {
	seconds   float64
	samples   []sample
	attempted int64
	failed    int64
	overruns  int64
	lagNS     []int64 // open loop: actual send minus due
	marks     []cpuMark
	mallocs   uint64
	bytes     uint64
	spans     []span
	obs       observations
	polls     int64
}

func (p *passResult) ops() float64 { return float64(len(p.samples)) }

// cpuMark is the process's CPU time at a window boundary of a pass.
type cpuMark struct {
	at  time.Duration // since the pass began
	cpu time.Duration // user + system, since the process began
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// markWindows reads the process CPU time at the pass's start and then at
// every window boundary until stop is closed. The boundaries are where the
// ticker actually fired, so each window's operations and CPU time are
// counted over the same interval.
func markWindows(start time.Time, stop <-chan struct{}, out *[]cpuMark) {
	*out = append(*out, cpuMark{0, processCPU()})
	tick := time.NewTicker(p99Window)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			*out = append(*out, cpuMark{time.Since(start), processCPU()})
		case <-stop:
			if len(*out) == 1 { // shorter than one window: the pass is the window
				*out = append(*out, cpuMark{time.Since(start), processCPU()})
			}
			return
		}
	}
}

// runPass drives w for d and measures it. With traced set, every
// operation records a root span and one in replayEvery is replayed.
func runPass(w *workloadRun, d time.Duration, traced bool) passResult {
	callers := make([]*caller, w.callers)
	for i := range callers {
		callers[i] = w.newCaller(i)
		if traced {
			callers[i].log = newSpanLog(i)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res passResult
	if w.rate > 0 {
		res = runOpen(w, callers[0], d)
	} else {
		res = runClosed(w, callers, d)
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc
	return res
}

// runClosed runs one goroutine per caller until the deadline.
func runClosed(w *workloadRun, callers []*caller, d time.Duration) passResult {
	type tally struct {
		samples           []sample
		attempted, failed int64
		polls             int64
	}
	tallies := make([]tally, len(callers))
	ctx := context.Background()
	var marks []cpuMark
	stop, stopped := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(stopped)
		markWindows(start, stop, &marks)
	}()
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			t.samples = make([]sample, 0, 1<<16)
			for n := 0; ; n++ {
				t0 := time.Since(start)
				if t0 >= d {
					return
				}
				r := c.gen.next()
				err := w.do(ctx, c, r)
				t1 := time.Since(start)
				t.attempted++
				if err != nil {
					t.failed++
					continue
				}
				t.samples = append(t.samples, sample{at: int64(t1), lat: int64(t1 - t0)})
				t.polls += int64(c.last.polls)
				if c.log != nil {
					root := c.log.root(w.rootName, int64(t0), int64(t1))
					if n%replayEvery == 0 {
						w.replay(c, root)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-stopped
	res := passResult{seconds: time.Since(start).Seconds(), marks: marks}
	for i, t := range tallies {
		res.samples = append(res.samples, t.samples...)
		res.attempted += t.attempted
		res.failed += t.failed
		res.polls += t.polls
		if c := callers[i]; c.log != nil {
			res.spans = append(res.spans, c.log.spans...)
			res.obs.merge(c.obs)
		}
	}
	return res
}

// threadCPU is the calling thread's CPU time; the caller must be locked to
// its thread for differences to mean anything.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for RUSAGE_THREAD
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOpen sends w.rate evenly spaced requests per second for d, each in its
// own goroutine, and waits for the stragglers. The mix and the keys come
// from the one seeded generator, in arrival order.
//
// The generator spins on a thread of its own until each request is due. A
// sleeping generator has to be woken, and on two CPUs that a garbage
// collection keeps busy for milliseconds at a time it is woken late: 2.6 ms
// at the 99th percentile with nanosleep, 0.5 ms spinning. The price is one
// CPU, so the services share the other, and the rate was set with that in
// place. The spinning thread's CPU time is left out of the window marks, so
// cpu_us_per_op is still the cost of the requests.
func runOpen(w *workloadRun, sched *caller, d time.Duration) passResult {
	interval := time.Second / time.Duration(w.rate)
	total := int(d / interval)
	var (
		mu       sync.Mutex // guards done
		done     passResult // what the request goroutines report
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	res := passResult{lagNS: make([]int64, 0, total)}
	done.samples = make([]sample, 0, total)

	runtime.LockOSThread()
	start := time.Now()
	mark := func() {
		res.marks = append(res.marks, cpuMark{time.Since(start), processCPU() - threadCPU()})
	}
	mark()
	nextMark := p99Window
	for i := 0; i < total; i++ {
		due := time.Duration(i) * interval
		for time.Since(start) < due {
		}
		if due >= nextMark {
			mark()
			nextMark += p99Window
		}
		res.lagNS = append(res.lagNS, int64(time.Since(start)-due))
		r := sched.gen.next()
		res.attempted++
		if inflight.Load() >= maxInflight {
			res.overruns++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			c := &caller{idx: i}
			if sched.log != nil {
				c.log = newSpanLog(i)
			}
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			err := w.do(ctx, c, r)
			cancel()
			end := time.Since(start)
			if err == nil && c.log != nil {
				root := c.log.root(rootNameOf(w, r.kind), int64(due), int64(end))
				if i%replayEvery == 0 {
					w.replay(c, root)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				done.failed++
				return
			}
			done.samples = append(done.samples, sample{at: int64(due), lat: int64(end - due)})
			if c.log != nil {
				done.spans = append(done.spans, c.log.spans...)
				done.obs.merge(c.obs)
			}
		}()
	}
	mark() // closes the last window, which ends with the last arrival
	runtime.UnlockOSThread()
	res.seconds = time.Since(start).Seconds()
	wg.Wait()
	res.samples, res.spans, res.obs = done.samples, done.spans, done.obs
	res.failed = done.failed + res.overruns
	return res
}

// rootNameOf names an open-loop root span by what the request did; only
// the workload's rootName carries the layer budget.
func rootNameOf(w *workloadRun, k opKind) string {
	switch k {
	case opStatus:
		return "proxy.status"
	case opSubmit:
		return "proxy.submit"
	}
	return w.rootName
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// timeN is the replay's stopwatch: the mean duration of one of reps calls.
func timeN(reps int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

// allocsOf reports the heap allocations and bytes of one call of fn,
// averaged over runs calls. It is only meaningful on a quiescent process:
// the suite calls it between passes, when no caller is running.
func allocsOf(runs int, fn func()) (allocs, bytes float64) {
	fn() // warm pools and lazy initialisation
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs), float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}
