package main

import (
	"sort"
	"strings"
	"time"

	"infogram/internal/telemetry"
)

// observations are the traced pass's per-layer timings: one value per
// replayed request under each metric name, reduced to medians at the end.
type observations map[string][]float64

// add records one value under metric.
func (o *observations) add(metric string, v float64) {
	if *o == nil {
		*o = make(observations)
	}
	(*o)[metric] = append((*o)[metric], v)
}

// addTime records d under metric in the unit the metric's name ends in:
// nanoseconds for _ns, microseconds for _us.
func (o *observations) addTime(metric string, d time.Duration) {
	v := float64(d)
	if strings.HasSuffix(metric, "_us") {
		v /= 1e3
	}
	o.add(metric, v)
}

func (o *observations) merge(from observations) {
	if *o == nil {
		*o = make(observations)
	}
	for k, v := range from {
		(*o)[k] = append((*o)[k], v...)
	}
}

// step times fn (the mean of reps calls), lays the result into the replay
// as a span, and records it under metric. Either name may be empty.
func step(cur *replayCursor, c *caller, spanName, metric string, reps int, fn func()) time.Duration {
	d := timeN(reps, fn)
	if spanName != "" {
		cur.add(spanName, d)
	}
	if metric != "" {
		c.obs.addTime(metric, d)
	}
	return d
}

// counterSnap is a reading of cumulative counters: the suite's own, and
// every counter, gauge and histogram of the telemetry registries it was
// given, keyed name{label=value,...}. Histograms appear as name_count and
// name_sum_ns. Gauges are keyed with a leading '=' and are not subtracted.
type counterSnap map[string]float64

func (s counterSnap) addTelemetry(regs ...*telemetry.Registry) {
	for _, reg := range regs {
		for _, p := range reg.Snapshot() {
			key := p.Name
			if len(p.Labels) > 0 {
				parts := make([]string, len(p.Labels))
				for i, l := range p.Labels {
					parts[i] = l.Key + "=" + l.Value
				}
				sort.Strings(parts)
				key += "{" + strings.Join(parts, ",") + "}"
			}
			switch p.Kind {
			case telemetry.KindCounter:
				s[key] += float64(p.Value)
			case telemetry.KindGauge:
				s["="+key] += float64(p.Value)
			case telemetry.KindHistogram:
				s[key+"_count"] += float64(p.Hist.Count)
				s[key+"_sum_ns"] += float64(p.Hist.Sum)
			}
		}
	}
}

// since returns s minus before; gauges keep their current value.
func (s counterSnap) since(before counterSnap) counterSnap {
	out := make(counterSnap, len(s))
	for k, v := range s {
		if strings.HasPrefix(k, "=") {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}

// family sums every label variant of a metric name.
func (s counterSnap) family(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serviceLayers fills the layer metrics every workload with a core.Service
// reads from the services' telemetry: counts per operation and ratios.
func serviceLayers(d counterSnap, ops float64, m map[string]float64) {
	m["gsi.auths_per_op"] = ratio(d["infogram_auth_total{outcome=ok}"], ops)
	m["wire.bytes_per_op"] = ratio(d["infogram_wire_bytes_read_total"]+d["infogram_wire_bytes_written_total"], ops)
	m["wire.frame_errors"] = d["infogram_wire_frame_errors_total"]
	hits, misses := d["infogram_bytecache_hits_total"], d["infogram_bytecache_misses_total"]
	m["core.respcache_hit_ratio"] = ratio(hits, hits+misses)
	m["core.rejected"] = d.family("infogram_admission_rejected_total")
	m["core.pool_checkout_us"] = ratio(d["infogram_pool_checkout_wait_seconds_sum_ns"], d["infogram_pool_checkout_wait_seconds_count"]) / 1e3
	m["bytecache.sets_per_op"] = ratio(d["infogram_bytecache_sets_total"], ops)
	m["bytecache.evictions_per_op"] = ratio(d.family("infogram_bytecache_evictions_total"), ops)
	m["bytecache.compactions"] = d["infogram_bytecache_compactions_total"]
	m["bytecache.resident_mb"] = d["=infogram_bytecache_resident_bytes"] / (1 << 20)
	m["provider.execs_per_op"] = ratio(d["suite_provider_execs"], ops)
	ph, pm := d.family("infogram_cache_hits_total"), d.family("infogram_cache_misses_total")
	m["provider.cache_hit_ratio"] = ratio(ph, ph+pm)
	m["gram.spawned_per_op"] = ratio(d["infogram_gram_jobs_spawned_total"], ops)
	m["journal.snapshots"] = d["infogram_journal_snapshots_total"]
}
