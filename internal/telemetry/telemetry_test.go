package telemetry

import (
	"bufio"
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Dec()
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil metrics must be no-ops")
	}
	var r *Registry
	if r.Counter("x", "") != nil {
		t.Error("nil registry must hand out nil metrics")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	c := &Counter{}
	c.Add(3)
	c.Add(-2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
}

// TestBucketBoundaries pins the bucket mapping at the edges: a sample
// exactly on a bound lands in that bucket, one nanosecond more spills into
// the next.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0}, // negative clamps to zero
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},                   // exactly bound 0
		{time.Microsecond + time.Nanosecond, 1}, // just over bound 0
		{2 * time.Microsecond, 1},               // exactly bound 1
		{2*time.Microsecond + time.Nanosecond, 2},
		{4 * time.Microsecond, 2},
		{BucketBound(10), 10},
		{BucketBound(10) + time.Nanosecond, 11},
		{BucketBound(NumBuckets - 1), NumBuckets - 1},             // largest finite bound
		{BucketBound(NumBuckets-1) + time.Nanosecond, NumBuckets}, // overflow
		{time.Hour, NumBuckets},                                   // deep overflow
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(tc.d)
		snap := h.Snapshot()
		got := -1
		for i, n := range snap.Buckets {
			if n > 0 {
				got = i
				break
			}
		}
		if got != tc.want {
			t.Errorf("Observe(%v): bucket %d, want %d", tc.d, got, tc.want)
		}
		if snap.Count != 1 {
			t.Errorf("Observe(%v): count %d, want 1", tc.d, snap.Count)
		}
	}
}

func TestHistogramSumAndMean(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Sum != 4*time.Millisecond {
		t.Errorf("sum = %v", snap.Sum)
	}
	if snap.Mean() != 2*time.Millisecond {
		t.Errorf("mean = %v", snap.Mean())
	}

	// The §6.5 performance tag's σ: 10, 20, 30 ms → sample σ exactly 10 ms.
	t.Run("stddev", func(t *testing.T) {
		h := &Histogram{}
		for _, d := range []time.Duration{10, 20, 30} {
			h.Observe(d * time.Millisecond)
		}
		snap := h.Snapshot()
		if snap.Mean() != 20*time.Millisecond || snap.StdDev() != 10*time.Millisecond {
			t.Errorf("mean, σ = %v, %v; want 20ms, 10ms", snap.Mean(), snap.StdDev())
		}
	})

	t.Run("single_observation", func(t *testing.T) {
		if (HistogramSnapshot{}).StdDev() != 0 {
			t.Error("empty histogram σ must be 0")
		}
		one := &Histogram{}
		one.Observe(time.Second)
		if one.Snapshot().StdDev() != 0 {
			t.Error("one-sample σ must be 0")
		}
	})

	// Concurrent observers lose no square: every stripe's CAS loop retries
	// until its add lands, so sum, sum of squares and σ stay exact.
	t.Run("concurrent", func(t *testing.T) {
		h := &Histogram{}
		const workers, per = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					h.Observe(time.Millisecond)
					h.Observe(3 * time.Millisecond)
				}
			}()
		}
		wg.Wait()
		snap := h.Snapshot()
		n := float64(2 * workers * per)
		if snap.Count != 2*workers*per || snap.Sum != time.Duration(n)*2*time.Millisecond {
			t.Fatalf("count, sum = %d, %v", snap.Count, snap.Sum)
		}
		if want := n / 2 * (1e12 + 9e12); snap.SumSq != want {
			t.Errorf("sum of squares = %g ns², want %g", snap.SumSq, want)
		}
		// Population σ is 1 ms; the sample σ is √(n/(n−1)) ms.
		want := time.Duration(math.Round(1e6 * math.Sqrt(n/(n-1))))
		if snap.StdDev() != want {
			t.Errorf("σ = %v, want %v", snap.StdDev(), want)
		}
	})
}

// TestHistogramStdDevMatchesNaive checks the one-pass σ against the
// two-pass formula on random durations.
func TestHistogramStdDevMatchesNaive(t *testing.T) {
	prop := func(us []uint32) bool {
		if len(us) < 2 {
			return true
		}
		h := &Histogram{}
		var sum float64
		for _, u := range us {
			d := time.Duration(u) * time.Microsecond
			h.Observe(d)
			sum += float64(d)
		}
		n := float64(len(us))
		mean := sum / n
		var ss float64
		for _, u := range us {
			x := float64(time.Duration(u)*time.Microsecond) - mean
			ss += x * x
		}
		want := math.Sqrt(ss / (n - 1))
		got := float64(h.Snapshot().StdDev())
		return math.Abs(got-want) <= math.Max(1, 1e-9*want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	// 100 samples in the (512µs, 1024µs] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(700 * time.Microsecond)
	}
	snap := h.Snapshot()
	p50 := snap.Quantile(0.5)
	if p50 <= 512*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Errorf("p50 = %v, want within (512µs, 1024µs]", p50)
	}
	if q := snap.Quantile(0); q != 0 {
		t.Errorf("q=0 → %v", q)
	}
	if (HistogramSnapshot{}).Quantile(0.99) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	// Overflow-bucket samples report the largest finite bound.
	h2 := &Histogram{}
	h2.Observe(time.Hour)
	if q := h2.Snapshot().Quantile(0.99); q != BucketBound(NumBuckets-1) {
		t.Errorf("overflow quantile = %v, want %v", q, BucketBound(NumBuckets-1))
	}
}

// TestRegistryIdempotent verifies same-name+labels lookups share state.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", Label{"verb", "submit"})
	b := r.Counter("reqs_total", "requests", Label{"verb", "submit"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("reqs_total", "requests", Label{"verb", "status"})
	if a == other {
		t.Fatal("different labels must return different counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("shared counter state lost")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch must panic")
		}
	}()
	r.Gauge("m", "")
}

// TestConcurrentObserveAndExpose hammers a registry from many goroutines
// while scraping it; run under -race via scripts/check.sh.
func TestConcurrentObserveAndExpose(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("inflight", "in flight")
	h := r.Histogram("latency_seconds", "latency")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i%2000) * time.Microsecond)
				g.Add(-1)
				if i%100 == 0 {
					_ = h.Snapshot()
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
					// Concurrent registration of a new label variant.
					r.Counter("ops_total", "ops", Label{"w", strconv.Itoa(w)}).Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8*500 {
		t.Errorf("counter = %d, want %d", c.Value(), 8*500)
	}
	if snap := h.Snapshot(); snap.Count != 8*500 {
		t.Errorf("histogram count = %d, want %d", snap.Count, 8*500)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
}

// TestPrometheusExposition checks the text format line by line: TYPE
// headers, cumulative monotone buckets, +Inf bucket equal to _count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("infogram_requests_total", "requests served", Label{"verb", "submit"}).Add(3)
	r.Gauge("infogram_inflight", "in-flight requests").Set(2)
	h := r.Histogram("infogram_request_duration_seconds", "request latency", Label{"verb", "submit"})
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Millisecond)
	h.Observe(time.Hour) // overflow

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE infogram_requests_total counter",
		`infogram_requests_total{verb="submit"} 3`,
		"# TYPE infogram_inflight gauge",
		"infogram_inflight 2",
		"# TYPE infogram_request_duration_seconds histogram",
		`infogram_request_duration_seconds_count{verb="submit"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Buckets must be cumulative and monotone, ending at +Inf == count.
	var last uint64
	var infSeen bool
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "infogram_request_duration_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Errorf("bucket counts not monotone at %q", line)
		}
		last = n
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if n != 3 {
				t.Errorf("+Inf bucket = %d, want 3", n)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket emitted")
	}
}

func TestTraceContext(t *testing.T) {
	id := NewTraceID()
	if len(id) != 16 {
		t.Errorf("trace ID %q: want 16 hex chars", id)
	}
	ctx := WithTrace(context.Background(), id)
	if got := TraceFrom(ctx); got != id {
		t.Errorf("TraceFrom = %q, want %q", got, id)
	}
	if TraceFrom(context.Background()) != "" {
		t.Error("absent trace must be empty")
	}
	if TraceFrom(nil) != "" {
		t.Error("nil ctx must be empty")
	}
	if NewTraceID() == NewTraceID() {
		t.Error("consecutive trace IDs collided")
	}
}
