package main

import "encoding/json"

// This file is the suite's vocabulary: every workload and metric name the
// program prints is declared here once, and BENCHMARK.json is generated
// from these tables (go run . -spec), so the two cannot drift.

// runSeconds is the measured length of one run; BENCHMARK.json records it
// and -seconds overrides it.
const runSeconds = 15

// mixedRate is proxy_mixed's arrival rate in requests per second: the
// nearest 500 at or below 40 % of the highest rate the same mix sustains
// without a growing backlog on the 2-core reference box, with one of the two
// CPUs given to the generator (see README.md, "How the rate was set"). It is
// a constant of the suite and never derived at run time.
const mixedRate = 3000

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Workload names are fixed; later issues cite them.
const (
	wQueryHot     = "query_hot"
	wQueryCold    = "query_cold"
	wConnectQuery = "connect_query"
	wJobCycle     = "job_cycle"
	wGIISSearch   = "giis_search"
	wProxyMixed   = "proxy_mixed"
)

var workloadSpecs = []workloadSpec{
	{wQueryHot, "closed loop, Zipf over 4096 cached single-keyword queries: smallest messages, so per-request cost in wire, xrsl, core dispatch, bytecache Get and client ldif decode dominates"},
	{wQueryCold, "closed loop, never-repeating 8-keyword queries into an 8 MiB cache: every op is miss, collect, render, Set with eviction; bypasses the hit path query_hot exercises"},
	{wConnectQuery, "closed loop, Dial + GSI mutual auth + capability negotiation + one hot query + Close per op: connect-to-first-answer, where gsi and wire negotiation dominate"},
	{wJobCycle, "closed loop, SUBMIT a journaled no-op func job and poll STATUS to DONE: the write path (xrsl job decode, gram, journal, job table, scheduler); info layers idle"},
	{wGIISSearch, "closed loop, LDAP searches through one GIIS (cache off) federating four cached GRIS: the two-protocol baseline and the only workload where mds does the work"},
	{wProxyMixed, "open loop, 3000 evenly spaced req/s through cluster.Proxy to two members, info 7 : status 2 : submit 1, latency from due time: the one workload with a queue and the relay hop"},
}

// End-to-end metric names, the same on every workload.
const (
	mOps     = "ops_per_s"
	mP50     = "p50_us"
	mCPU     = "cpu_us_per_op"
	mAllocs  = "allocs_per_op"
	mBytes   = "bytes_per_op"
	mSetup   = "setup_s"
	mPeakRSS = "peak_rss_mb"
)

// One list serves all six workloads, so each bound has to hold on the
// workload where its metric is noisiest. The two allocation counts do not
// depend on the clock, spread by at most 0.5 % over ten seeds, and carry the
// issue's 2 % and 5 %: they are what catches creep. Everything read from a
// clock moves with the reference box, a shared virtual machine that its
// neighbours slow by 30-70 % for up to a minute at a time (README.md,
// "Spread over ten seeds"); those
// carry the widest bound the driver allows, because it refuses a benchmark
// whose own runs spread further than its bounds. Tail latency spread by up
// to 44 % and is therefore a diagnostic, driver.p99_us, not listed here.
var endToEndSpecs = []endToEndSpec{
	{mOps, "1/s", "higher", 0.25},
	{mP50, "us", "lower", 0.25},
	{mCPU, "us", "lower", 0.25},
	{mAllocs, "count", "lower", 0.02},
	{mBytes, "B", "lower", 0.05},
	{mSetup, "s", "lower", 0.25},
	{mPeakRSS, "MiB", "lower", 0.25},
}

// Per-layer metrics, named layer.metric after this repository's packages.
// A metric whose layer is not on a workload's request path reads 0 there.
var layerSpecs = []layerSpec{
	{"gsi.handshake_us", "us", "lower"},
	{"gsi.handshake_allocs", "count", "lower"},
	{"gsi.verify_chain_us", "us", "lower"},
	{"gsi.auths_per_op", "count", "lower"},

	{"wire.write_frame_ns", "ns", "lower"},
	{"wire.read_frame_ns", "ns", "lower"},
	{"wire.frame_allocs", "count", "lower"},
	{"wire.negotiate_us", "us", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"wire.frame_errors", "count", "lower"},

	{"xrsl.decode_ns", "ns", "lower"},
	{"xrsl.decode_allocs", "count", "lower"},

	{"core.roundtrip_us", "us", "lower"},
	{"core.layers_us", "us", "lower"},
	{"core.residual_us", "us", "lower"},
	{"core.respcache_hit_ratio", "ratio", "higher"},
	{"core.rejected", "count", "lower"},
	{"core.pool_checkout_us", "us", "lower"},

	{"bytecache.get_ns", "ns", "lower"},
	{"bytecache.set_ns", "ns", "lower"},
	{"bytecache.sets_per_op", "count", "lower"},
	{"bytecache.evictions_per_op", "count", "lower"},
	{"bytecache.compactions", "count", "lower"},
	{"bytecache.resident_mb", "MiB", "lower"},

	{"provider.collect_ns", "ns", "lower"},
	{"provider.collect_allocs", "count", "lower"},
	{"provider.execs_per_op", "count", "lower"},
	{"provider.cache_hit_ratio", "ratio", "higher"},

	{"ldif.marshal_ns", "ns", "lower"},
	{"ldif.marshal_allocs", "count", "lower"},
	{"ldif.unmarshal_ns", "ns", "lower"},
	{"ldif.unmarshal_bytes", "B", "lower"},
	{"ldif.body_bytes", "B", "lower"},

	{"gram.submit_us", "us", "lower"},
	{"gram.done_wait_us", "us", "lower"},
	{"gram.status_polls_per_job", "count", "lower"},
	{"gram.spawned_per_op", "count", "lower"},

	{"journal.append_ns", "ns", "lower"},
	{"journal.append_allocs", "count", "lower"},
	{"journal.sync_us", "us", "lower"},
	{"journal.appends_per_job", "count", "lower"},
	{"journal.snapshots", "count", "lower"},

	{"scheduler.func_run_ns", "ns", "lower"},

	{"mds.filter_parse_ns", "ns", "lower"},
	{"mds.filter_match_ns", "ns", "lower"},
	{"mds.gris_search_us", "us", "lower"},
	{"mds.fanout_overhead_us", "us", "lower"},
	{"mds.legs_per_search", "count", "lower"},
	{"mds.member_errors", "count", "lower"},
	{"mds.searches_degraded", "count", "lower"},

	{"cluster.ring_owner_ns", "ns", "lower"},
	{"cluster.route_key_ns", "ns", "lower"},
	{"cluster.relay_overhead_us", "us", "lower"},
	{"cluster.forwards_per_op", "count", "lower"},
	{"cluster.fallbacks", "count", "lower"},
	{"cluster.relay_errors", "count", "lower"},
	{"cluster.member_share_max", "ratio", "lower"},

	{"driver.sched_lag_p99_us", "us", "lower"},
	{"driver.overruns", "count", "lower"},
	{"driver.trace_overhead_ratio", "ratio", "higher"},
	{"driver.samples", "count", "higher"},
	{"driver.fail_ratio", "ratio", "lower"},
	{"driver.p99_us", "us", "lower"},
	{"driver.tail_quantile", "ratio", "higher"},
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   layerSpecs,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return append(b, '\n')
}
