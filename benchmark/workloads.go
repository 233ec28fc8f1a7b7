package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/cache"
	"infogram/internal/cluster"
	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/ldif"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
)

// env is what a set-up is given.
type env struct {
	seed   int64
	nproc  int // callers and pooled connections: one per CPU
	outDir string
}

// warmOps is the count-based warm-up that follows one full pass over a
// workload's key space; because it is a count, not a duration, work moved
// into set-up shows in setup_s.
const warmOps = 2000

// setups maps each workload name to its set-up.
var setups = map[string]func(env) (*workloadRun, error){
	wQueryHot:     setupQueryHot,
	wQueryCold:    setupQueryCold,
	wConnectQuery: setupConnectQuery,
	wJobCycle:     setupJobCycle,
	wGIISSearch:   setupGIISSearch,
	wProxyMixed:   setupProxyMixed,
}

// expect holds every value a provider of the suite reports and every
// attribute name a check looks up, so verification allocates nothing.
var expect = func() (t struct {
	value [giisMembers][hotKeywords][attrGroups]string
	attr  [hotKeywords][attrGroups]string
}) {
	for k := 0; k < hotKeywords; k++ {
		for g := 0; g < attrGroups; g++ {
			t.attr[k][g] = kwName(k) + ":g" + strconv.Itoa(g) + "x0"
			for m := 0; m < giisMembers; m++ {
				t.value[m][k][g] = attrValue(m, k, g, 0)
			}
		}
	}
	return t
}()

// verifyInfo checks an information answer against its request: one entry
// per requested keyword, in order, each naming its keyword and carrying
// the expected value of the selected group's first attribute; resource,
// when given, must be the answering resource's name.
func verifyInfo(entries []ldif.Entry, r request, resource string) error {
	if len(entries) != len(r.kws) {
		return fmt.Errorf("answer has %d entries, want %d", len(entries), len(r.kws))
	}
	for i, kw := range r.kws {
		e := &entries[i]
		if v, _ := e.Get("kw"); v != kwName(kw) {
			return fmt.Errorf("entry %d is keyword %q, want %s", i, v, kwName(kw))
		}
		if v, _ := e.Get(expect.attr[kw][r.group]); v != expect.value[0][kw][r.group] {
			return fmt.Errorf("%s = %q, want %q", expect.attr[kw][r.group], v, expect.value[0][kw][r.group])
		}
		if resource != "" {
			if v, _ := e.Get("resource"); v != resource {
				return fmt.Errorf("answered by resource %q, want %q", v, resource)
			}
		}
	}
	return nil
}

// warmUp runs one pass over table and then warmOps generated operations,
// split over nproc callers. Any failure fails the set-up.
func warmUp(w *workloadRun, nproc int, table []request) error {
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := w.newCaller(i)
			ctx := context.Background()
			for k := i; k < len(table); k += nproc {
				if err := w.do(ctx, c, table[k]); err != nil {
					errs[i] = err
					return
				}
			}
			for k := i; k < warmOps; k += nproc {
				if err := w.do(ctx, c, c.gen.next()); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fillPool dials n connections of p now, so that no pass pays a handshake
// the workload does not ask for.
func fillPool(p *core.Pool, n int) error {
	ctx := context.Background()
	leases := make([]*core.Client, 0, n)
	defer func() {
		for _, cl := range leases {
			p.Checkin(cl)
		}
	}()
	for len(leases) < n {
		cl, err := p.Checkout(ctx)
		if err != nil {
			return err
		}
		leases = append(leases, cl)
	}
	return nil
}

// cleanup collects what a set-up has started, to be undone in reverse.
type cleanup []func()

func (c *cleanup) add(fn func()) { *c = append(*c, fn) }

// run takes a pointer so that started.run, bound early, sees later adds.
func (c *cleanup) run() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
}

// infoKit is what replaying an information query through the layers needs:
// a byte cache and a provider registry of the suite's own, shaped like the
// service's, so the replay never disturbs the service's counters.
type infoKit struct {
	resource string
	cold     bool
	bc       *bytecache.Cache
	mirror   *provider.Registry
}

func newInfoKit(resource string, stable, volatile int, cacheMaxBytes int64) *infoKit {
	return &infoKit{
		resource: resource,
		cold:     volatile > 0,
		bc:       bytecache.New(bytecache.Options{MaxBytes: cacheMaxBytes, DefaultTTL: cacheTTL}),
		mirror:   newRegistry(0, stable, volatile, new(atomic.Int64)),
	}
}

// collect is the provider layer's share of a miss: collect the keywords
// and shape the reports into entries.
func (k *infoKit) collect(kws []int) {
	names := make([]string, len(kws))
	for i, kw := range kws {
		names[i] = kwName(kw)
	}
	reports, _ := k.mirror.Collect(context.Background(), names, cache.Cached, 0)
	_ = provider.ReportEntries(k.resource, reports)
}

const (
	replayReps     = 8 // for steps that take nanoseconds to microseconds
	replayRepsSlow = 1 // for steps that cross the loopback
)

// replayFrames times the wire layer on an exchange's own bytes: the
// request and the response frame written to a buffer, then read back.
func replayFrames(cur *replayCursor, c *caller, req, resp wire.Frame) {
	var buf bytes.Buffer
	write := func() {
		buf.Reset()
		_ = wire.WriteFrame(&buf, req)
		_ = wire.WriteFrame(&buf, resp)
	}
	d := step(cur, c, "wire.write_frame", "", replayReps, write)
	c.obs.addTime("wire.write_frame_ns", d/2)
	raw, rd, br := buf.Bytes(), new(bytes.Reader), bufio.NewReader(nil)
	d = step(cur, c, "wire.read_frame", "", replayReps, func() {
		rd.Reset(raw)
		br.Reset(rd)
		_, _ = wire.ReadFrame(br)
		_, _ = wire.ReadFrame(br)
	})
	c.obs.addTime("wire.read_frame_ns", d/2)
}

// replay lays an information query's layers under parent: request decode,
// both frames, then on the miss path collect, render and Set, on the hit
// path Get, and the client's decode of the body.
func (k *infoKit) replay(cur *replayCursor, c *caller, r request, body string) {
	step(cur, c, "xrsl.decode", "xrsl.decode_ns", replayReps, func() { _, _ = xrsl.DecodeOne(r.src, nil) })
	replayFrames(cur, c,
		wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(r.src)},
		wire.Frame{Verb: core.VerbResultLDIF, Payload: []byte(body)})
	key := []byte(r.src)
	if k.cold {
		step(cur, c, "provider.collect", "provider.collect_ns", replayReps, func() { k.collect(r.kws) })
		entries, _ := ldif.Unmarshal(body)
		step(cur, c, "ldif.marshal", "ldif.marshal_ns", replayReps, func() { _, _ = ldif.Marshal(entries) })
		step(cur, c, "bytecache.set", "bytecache.set_ns", replayReps, func() { k.bc.Set(key, []byte(body), volatileTTL) })
	} else {
		if _, ok := k.bc.Get(key); !ok {
			k.bc.Set(key, []byte(body), 0)
		}
		step(cur, c, "bytecache.get", "bytecache.get_ns", replayReps, func() { _, _ = k.bc.Get(key) })
	}
	step(cur, c, "ldif.unmarshal", "ldif.unmarshal_ns", replayReps, func() { _, _ = ldif.Unmarshal(body) })
	c.obs.add("ldif.body_bytes", float64(len(body)))
}

// quiet measures, on a quiescent process, what the layers allocate for one
// request like the last one replayed.
func (k *infoKit) quiet(last lastOp, m map[string]float64) {
	if last.req.src == "" {
		return
	}
	src, body := last.req.src, last.body
	m["xrsl.decode_allocs"], _ = allocsOf(200, func() { _, _ = xrsl.DecodeOne(src, nil) })
	m["wire.frame_allocs"] = frameAllocs(wire.Frame{Verb: core.VerbResultLDIF, Payload: []byte(body)})
	_, m["ldif.unmarshal_bytes"] = allocsOf(200, func() { _, _ = ldif.Unmarshal(body) })
	if k.cold {
		m["provider.collect_allocs"], _ = allocsOf(200, func() { k.collect(last.req.kws) })
		entries, _ := ldif.Unmarshal(body)
		m["ldif.marshal_allocs"], _ = allocsOf(200, func() { _, _ = ldif.Marshal(entries) })
	}
}

// frameAllocs counts the allocations of writing f and reading it back.
func frameAllocs(f wire.Frame) float64 {
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	allocs, _ := allocsOf(200, func() {
		buf.Reset()
		_ = wire.WriteFrame(&buf, f)
		br.Reset(&buf)
		_, _ = wire.ReadFrame(br)
	})
	return allocs
}

// lastReplayed remembers the most recent replayed operation, for quiet.
type lastReplayed struct {
	mu sync.Mutex
	op lastOp
}

func (l *lastReplayed) set(op lastOp) { l.mu.Lock(); l.op = op; l.mu.Unlock() }
func (l *lastReplayed) get() lastOp   { l.mu.Lock(); defer l.mu.Unlock(); return l.op }

// infoService is the part query_hot, query_cold and connect_query share:
// one core.Service with the response cache on, a pool of nproc mux
// connections to it, and the kit that replays its queries.
type infoService struct {
	f         *fabric
	node      *node
	pool      *core.Pool
	clientTel *telemetry.Registry
	kit       *infoKit
	last      lastReplayed
}

func startInfoService(e env, o nodeOptions) (*infoService, error) {
	f, err := newFabric()
	if err != nil {
		return nil, err
	}
	n, err := startNode(f, o)
	if err != nil {
		return nil, err
	}
	s := &infoService{f: f, node: n, clientTel: telemetry.NewRegistry(),
		kit: newInfoKit(o.resource, o.stable, o.volatile, o.cacheMaxBytes)}
	s.pool = core.NewPool(n.addr, f.user, f.trust, core.PoolOptions{
		Size: e.nproc, Client: core.Options{Telemetry: s.clientTel}})
	if err := fillPool(s.pool, e.nproc); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *infoService) close() {
	s.pool.Close()
	s.node.close()
}

func (s *infoService) counters() counterSnap {
	snap := counterSnap{"suite_provider_execs": float64(s.node.execs.Load())}
	snap.addTelemetry(s.node.tel, s.clientTel)
	return snap
}

// query is the pooled operation: one verified information query.
func (s *infoService) query(ctx context.Context, c *caller, r request) error {
	res, err := s.pool.QueryRaw(ctx, r.src)
	if err != nil {
		return err
	}
	c.last = lastOp{req: r, body: res.Raw}
	return verifyInfo(res.Entries, r, s.node.resource)
}

func (s *infoService) run(e env, name, root string, table []request) *workloadRun {
	return &workloadRun{
		name: name, callers: e.nproc, rootName: root,
		newCaller: func(i int) *caller {
			return &caller{idx: i, gen: newGenerator(name, e.seed, i, e.nproc, table)}
		},
		do: s.query,
		replay: func(c *caller, root span) {
			s.kit.replay(c.log.replayInto(root), c, c.last.req, c.last.body)
			s.last.set(c.last)
		},
		counters: s.counters,
		layers: func(d counterSnap, ops float64, m map[string]float64) {
			serviceLayers(d, ops, m)
			s.kit.quiet(s.last.get(), m)
		},
		close: s.close,
	}
}

func setupQueryHot(e env) (*workloadRun, error) {
	s, err := startInfoService(e, nodeOptions{resource: "hot.resource", stable: hotKeywords})
	if err != nil {
		return nil, err
	}
	table := hotTable(e.seed)
	w := s.run(e, wQueryHot, "core.query", table)
	if err := warmUp(w, e.nproc, table); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// coldCacheBytes caps query_cold's response cache so that it is always
// full: every Set evicts, and compaction keeps running.
const coldCacheBytes = 8 << 20

func setupQueryCold(e env) (*workloadRun, error) {
	s, err := startInfoService(e, nodeOptions{resource: "cold.resource",
		stable: coldStable, volatile: coldVolatile, cacheMaxBytes: coldCacheBytes})
	if err != nil {
		return nil, err
	}
	w := s.run(e, wQueryCold, "core.query", nil)
	// The key space never repeats, so the full pass is one query per
	// provider: it fills the stable providers' caches.
	var pass []request
	for k := 0; k < coldStable+coldVolatile; k++ {
		pass = append(pass, request{kind: opInfo, src: "&(info=" + kwName(k) + ")(filter=\"*:g0x*\")", kws: []int{k}})
	}
	if err := warmUp(w, e.nproc, pass); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// setupConnectQuery measures what a command-line user pays: connect,
// authenticate, negotiate, ask one hot question, leave.
func setupConnectQuery(e env) (*workloadRun, error) {
	s, err := startInfoService(e, nodeOptions{resource: "hot.resource", stable: hotKeywords})
	if err != nil {
		return nil, err
	}
	hs, hsAddr, err := handshakeServer(s.f)
	if err != nil {
		s.close()
		return nil, err
	}
	table := hotTable(e.seed)
	w := s.run(e, wConnectQuery, "connect_query", table)
	w.close = func() { hs.Close(); s.close() }
	// The pass over the key space fills the response cache through the
	// pool; only the count-based warm-up pays a connection per operation.
	if err := warmUp(w, e.nproc, table); err != nil {
		w.close()
		return nil, err
	}
	w.do = func(ctx context.Context, c *caller, r request) error {
		t0 := time.Now()
		cl, err := core.Dial(s.node.addr, s.f.user, s.f.trust)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := cl.QueryRawContext(ctx, r.src)
		t2 := time.Now()
		cl.Close()
		if err != nil {
			return err
		}
		c.last = lastOp{req: r, body: res.Raw,
			marks: [3]int64{int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(time.Since(t2))}}
		return verifyInfo(res.Entries, r, s.node.resource)
	}
	w.replay = func(c *caller, root span) {
		dial, query := c.last.marks[0], c.last.marks[1]
		dialSpan := c.log.child(root, "core.dial", root.Start, root.Start+dial)
		querySpan := c.log.child(root, "core.query", dialSpan.End, dialSpan.End+query)
		c.log.child(root, "core.close", querySpan.End, querySpan.End+c.last.marks[2])
		c.obs.addTime("suite.dial_us", time.Duration(dial))

		cur := c.log.replayInto(dialSpan)
		step(cur, c, "net.connect", "suite.connect_us", replayRepsSlow, func() {
			if nc, err := net.Dial("tcp", hsAddr); err == nil {
				nc.Close()
			}
		})
		conn, err := wire.Dial(hsAddr)
		if err == nil {
			step(cur, c, "gsi.handshake", "gsi.handshake_us", replayRepsSlow, func() {
				_, _ = gsi.ClientHandshake(conn, s.f.user, s.f.trust, time.Now())
			})
			conn.Close()
		}
		now := time.Now()
		step(nil, c, "", "gsi.verify_chain_us", replayReps, func() { _ = s.f.trust.VerifyChain(s.f.user.Chain, now) })
		s.kit.replay(c.log.replayInto(querySpan), c, c.last.req, c.last.body)
		s.last.set(c.last)
	}
	layers := w.layers
	w.layers = func(d counterSnap, ops float64, m map[string]float64) {
		layers(d, ops, m)
		// What core.Dial costs beyond the TCP connect and the handshake:
		// the TRACE and MUX capability round trips.
		m["wire.negotiate_us"] = m["suite.dial_us"] - m["suite.connect_us"] - m["gsi.handshake_us"]
		m["gsi.handshake_allocs"], _ = allocsOf(50, func() {
			if conn, err := wire.Dial(hsAddr); err == nil {
				_, _ = gsi.ClientHandshake(conn, s.f.user, s.f.trust, time.Now())
				conn.Close()
			}
		})
	}
	if err := warmUp(w, e.nproc, nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// jobKit replays the write path's layers on an isolated journal and func
// backend of the suite's own, under the same fsync policy as the service.
type jobKit struct {
	jnl    *journal.Journal
	fn     *scheduler.Func
	dir    string
	serial atomic.Int64 // makes the contacts of replayed records distinct
}

func newJobKit(outDir string) (*jobKit, error) {
	dir, err := stateDir(outDir, "replay")
	if err != nil {
		return nil, err
	}
	jnl, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &jobKit{jnl: jnl, fn: noopFunc(), dir: dir}, nil
}

func (k *jobKit) close() {
	k.jnl.Close()
	os.RemoveAll(k.dir)
}

// entries are the two records the manager journals per job before its
// acknowledgements, the submission and the terminal transition, for n jobs
// like the one given. Each job has a contact of its own: the journal folds
// records by contact, and a record for a job it already knows takes another
// path than a new job's.
func (k *jobKit) entries(src, contact string, n int) (submits, dones []journal.Entry) {
	now := time.Now().UnixNano()
	exit := 0
	for i := 0; i < n; i++ {
		c := contact + "#" + strconv.FormatInt(k.serial.Add(1), 10)
		submits = append(submits, journal.Entry{Kind: journal.KindSubmit, Time: now, Contact: c, Spec: src, Owner: "bench", Identity: "/O=Grid/CN=bench-user"})
		dones = append(dones, journal.Entry{Kind: journal.KindState, Time: now, Contact: c, State: job.Done.String(), ExitCode: &exit})
	}
	return submits, dones
}

// replaySubmit lays the submit path's layers under the SUBMIT span: the
// request decode, both frames, and the journal record the manager appends
// before it acknowledges. It returns the terminal records of the jobs it
// journalled, for replayWait.
func (k *jobKit) replaySubmit(c *caller, submitSpan span, src, contact string) (dones []journal.Entry) {
	cur := c.log.replayInto(submitSpan)
	step(cur, c, "xrsl.decode", "xrsl.decode_ns", replayReps, func() { _, _ = xrsl.DecodeOne(src, nil) })
	replayFrames(cur, c,
		wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(src)},
		wire.Frame{Verb: gram.VerbSubmitted, Payload: []byte(contact)})
	submits, dones := k.entries(src, contact, replayReps)
	ctx := context.Background()
	i := 0
	step(cur, c, "journal.append", "journal.append_ns", replayReps, func() { _ = k.jnl.Append(ctx, submits[i]); i++ })
	step(nil, c, "", "journal.sync_us", replayRepsSlow, func() { _ = k.jnl.Sync() })
	return dones
}

// replayWait lays the func backend's run and the terminal transition's
// journal record under the wait-for-DONE span.
func (k *jobKit) replayWait(c *caller, waitSpan span, dones []journal.Entry) {
	cur := c.log.replayInto(waitSpan)
	ctx := context.Background()
	step(cur, c, "scheduler.func_run", "scheduler.func_run_ns", replayReps, func() {
		if h, err := k.fn.Submit(ctx, scheduler.Task{Executable: "noop"}); err == nil {
			_, _ = h.Wait(ctx)
		}
	})
	i := 0
	step(cur, c, "journal.append", "", replayReps, func() { _ = k.jnl.Append(ctx, dones[i]); i++ })
}

// appendAllocs counts the allocations of journalling one submission, on a
// quiescent process.
func (k *jobKit) appendAllocs(src, contact string) float64 {
	const runs = 200
	submits, _ := k.entries(src, contact, runs+1) // allocsOf calls once more, to warm up
	i := 0
	allocs, _ := allocsOf(runs, func() { _ = k.jnl.Append(context.Background(), submits[i]); i++ })
	return allocs
}

func (k *jobKit) quiet(last lastOp, m map[string]float64) {
	if last.req.src == "" {
		return
	}
	src := last.req.src
	m["xrsl.decode_allocs"], _ = allocsOf(200, func() { _, _ = xrsl.DecodeOne(src, nil) })
	m["wire.frame_allocs"] = frameAllocs(wire.Frame{Verb: gram.VerbSubmitted, Payload: []byte(last.body)})
	m["journal.append_allocs"] = k.appendAllocs(src, last.body)
}

// jobCycle submits src and polls STATUS, back to back, until the job is
// DONE. There is no pause between polls: about one no-op job in a hundred
// is not yet DONE at the first poll, so a 1 ms pause would put a cliff
// exactly at the 99th percentile and p99_us would flip between 0.35 ms and
// 1.1 ms from run to run (measured: 44 % spread over ten seeds). It fills
// c.last with the contact, the poll count and the two real sub-intervals:
// SUBMIT to its acknowledgement, and from there to DONE seen.
func jobCycle(ctx context.Context, cl *core.Pool, c *caller, r request) error {
	t0 := time.Now()
	contact, err := cl.Submit(ctx, r.src)
	if err != nil {
		return err
	}
	t1 := time.Now()
	polls := 0
	for {
		st, err := cl.Status(ctx, contact)
		if err != nil {
			return err
		}
		polls++
		if st.State == job.Done {
			break
		}
		if st.State.Terminal() {
			return fmt.Errorf("job %s ended %s: %s", contact, st.State, st.Error)
		}
	}
	c.last = lastOp{req: r, body: contact, polls: polls,
		marks: [3]int64{int64(t1.Sub(t0)), int64(time.Since(t1))}}
	return nil
}

func setupJobCycle(e env) (*workloadRun, error) {
	dir, err := stateDir(e.outDir, wJobCycle)
	if err != nil {
		return nil, err
	}
	s, err := startInfoService(e, nodeOptions{resource: "job.resource", stable: hotKeywords, journalDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	kit, err := newJobKit(e.outDir)
	if err != nil {
		s.close()
		os.RemoveAll(dir)
		return nil, err
	}
	w := &workloadRun{
		name: wJobCycle, callers: e.nproc, rootName: "job_cycle",
		newCaller: func(i int) *caller {
			return &caller{idx: i, gen: newGenerator(wJobCycle, e.seed, i, e.nproc, nil)}
		},
		do: func(ctx context.Context, c *caller, r request) error { return jobCycle(ctx, s.pool, c, r) },
		replay: func(c *caller, root span) {
			submit, wait := c.last.marks[0], c.last.marks[1]
			submitSpan := c.log.child(root, "gram.submit", root.Start, root.Start+submit)
			waitSpan := c.log.child(root, "gram.done_wait", submitSpan.End, submitSpan.End+wait)
			c.obs.addTime("gram.submit_us", time.Duration(submit))
			c.obs.addTime("gram.done_wait_us", time.Duration(wait))
			dones := kit.replaySubmit(c, submitSpan, c.last.req.src, c.last.body)
			kit.replayWait(c, waitSpan, dones)
			s.last.set(c.last)
		},
		counters: s.counters,
		layers: func(d counterSnap, ops float64, m map[string]float64) {
			serviceLayers(d, ops, m)
			m["journal.appends_per_job"] = ratio(d["infogram_journal_appends_total"], ops)
			kit.quiet(s.last.get(), m)
		},
		close: func() { kit.close(); s.close(); os.RemoveAll(dir) },
	}
	if err := warmUp(w, e.nproc, nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// setupGIISSearch builds the two-protocol baseline: four GRIS with their
// caches on, registered with one GIIS whose own cache is off, so every
// search fans out to all four members.
func setupGIISSearch(e env) (*workloadRun, error) {
	f, err := newFabric()
	if err != nil {
		return nil, err
	}
	var started cleanup
	giisTel := telemetry.NewRegistry()
	giis := mds.NewGIIS(mds.GIISConfig{OrgName: "bench-vo", Credential: f.service, Trust: f.trust, Telemetry: giisTel})
	giisAddr, err := giis.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	started.add(func() { giis.Close() })
	var grisAddrs []string
	for m := 0; m < giisMembers; m++ {
		gris := mds.NewGRIS(mds.GRISConfig{
			ResourceName: "gris" + strconv.Itoa(m),
			Registry:     newRegistry(m, giisKeywords, 0, new(atomic.Int64)),
			Credential:   f.service, Trust: f.trust,
			CacheTTL: cacheTTL,
		})
		addr, err := gris.Listen("127.0.0.1:0")
		if err != nil {
			started.run()
			return nil, err
		}
		started.add(func() { gris.Close() })
		giis.Register(addr)
		grisAddrs = append(grisAddrs, addr)
	}
	// One connection per caller to the GIIS, and one to the first GRIS for
	// the replay's direct search: an mds.Client carries one call at a time.
	dial := func(addr string) ([]*mds.Client, error) {
		cls := make([]*mds.Client, e.nproc)
		for i := range cls {
			cl, err := mds.Dial(addr, f.user, f.trust)
			if err != nil {
				return nil, err
			}
			started.add(func() { cl.Close() })
			cls[i] = cl
		}
		return cls, nil
	}
	clients, err := dial(giisAddr)
	if err != nil {
		started.run()
		return nil, err
	}
	direct, err := dial(grisAddrs[0])
	if err != nil {
		started.run()
		return nil, err
	}
	table := giisTable(e.seed)
	var legs, searches atomic.Int64
	var last lastReplayed
	w := &workloadRun{
		name: wGIISSearch, callers: e.nproc, rootName: "mds.search",
		newCaller: func(i int) *caller {
			return &caller{idx: i, gen: newGenerator(wGIISSearch, e.seed, i, e.nproc, table)}
		},
		do: func(ctx context.Context, c *caller, r request) error {
			entries, err := clients[c.idx].SearchContext(ctx, mds.SearchRequest{Filter: r.src})
			if err != nil {
				return err
			}
			n, err := verifySearch(entries, r)
			legs.Add(int64(n))
			searches.Add(1)
			c.last = lastOp{req: r, entries: entries}
			return err
		},
		replay: func(c *caller, root span) {
			cur := c.log.replayInto(root)
			filter, entries := c.last.req.src, c.last.entries
			body, _ := ldif.Marshal(entries)
			c.last.body = body
			step(cur, c, "mds.filter_parse", "mds.filter_parse_ns", replayReps, func() { _, _ = mds.ParseFilter(filter) })
			step(cur, c, "mds.gris_search", "mds.gris_search_us", replayRepsSlow, func() {
				_, _ = direct[c.idx].Search(mds.SearchRequest{Filter: filter})
			})
			if parsed, err := mds.ParseFilter(filter); err == nil && len(entries) > 0 {
				step(cur, c, "mds.filter_match", "mds.filter_match_ns", replayReps, func() { parsed.Matches(&entries[0]) })
			}
			// The merged body is rendered once by the GIIS and decoded
			// twice: by the GIIS (as four member bodies) and by the client.
			step(cur, c, "ldif.marshal", "ldif.marshal_ns", replayReps, func() { _, _ = ldif.Marshal(entries) })
			d := step(cur, c, "ldif.unmarshal", "", replayReps, func() {
				_, _ = ldif.Unmarshal(body)
				_, _ = ldif.Unmarshal(body)
			})
			c.obs.addTime("ldif.unmarshal_ns", d/2)
			c.obs.add("ldif.body_bytes", float64(len(body)))
			replayFrames(cur, c,
				wire.Frame{Verb: mds.VerbSearch, Payload: []byte(`{"filter":"` + filter + `"}`)},
				wire.Frame{Verb: mds.VerbResult, Payload: []byte(body)})
			last.set(c.last)
		},
		counters: func() counterSnap {
			snap := counterSnap{"suite_legs": float64(legs.Load()), "suite_searches": float64(searches.Load())}
			snap.addTelemetry(giisTel)
			return snap
		},
		layers: func(d counterSnap, ops float64, m map[string]float64) {
			m["mds.legs_per_search"] = ratio(d["suite_legs"], d["suite_searches"])
			m["mds.fanout_overhead_us"] = m["core.roundtrip_us"] - m["mds.gris_search_us"]
			m["mds.member_errors"] = d["mds_giis_member_errors_total"]
			m["mds.searches_degraded"] = d["mds_giis_searches_degraded_total"]
			if op := last.get(); op.body != "" {
				body := op.body
				m["wire.frame_allocs"] = frameAllocs(wire.Frame{Verb: mds.VerbResult, Payload: []byte(body)})
				_, m["ldif.unmarshal_bytes"] = allocsOf(200, func() { _, _ = ldif.Unmarshal(body) })
				entries, _ := ldif.Unmarshal(body)
				m["ldif.marshal_allocs"], _ = allocsOf(200, func() { _, _ = ldif.Marshal(entries) })
			}
		},
		close: started.run,
	}
	if err := warmUp(w, e.nproc, table); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// verifySearch checks a GIIS answer: one entry per member for the asked
// keyword, each carrying that member's value, and no degraded-status
// entry. It returns how many distinct members answered.
func verifySearch(entries []ldif.Entry, r request) (members int, err error) {
	kw := r.kws[0]
	var seen [giisMembers]bool
	for i := range entries {
		e := &entries[i]
		if v, _ := e.Get("objectclass"); v == core.DegradedObjectClass {
			return members, fmt.Errorf("degraded answer: %v", e.All("missing"))
		}
		res, _ := e.Get("resource")
		m, perr := strconv.Atoi(res[min(len(res), len("gris")):])
		if perr != nil || m < 0 || m >= giisMembers || seen[m] {
			return members, fmt.Errorf("unexpected entry from resource %q", res)
		}
		if v, _ := e.Get(expect.attr[kw][0]); v != expect.value[m][kw][0] {
			return members, fmt.Errorf("%s of %s = %q, want %q", expect.attr[kw][0], res, v, expect.value[m][kw][0])
		}
		seen[m] = true
		members++
	}
	if members != giisMembers {
		return members, fmt.Errorf("%d member entries, want %d", members, giisMembers)
	}
	return members, nil
}

const (
	// proxyMembers is the size of proxy_mixed's cluster.
	proxyMembers = 2
	// routerPoolSize is core.PoolOptions' default pool size, which the
	// router's per-member pools are left at.
	routerPoolSize = 4
)

// setupProxyMixed builds the cluster: two core.Service members with cache
// and journal on, a Router over them, the Proxy in front, and a pool of
// nproc connections to the proxy.
func setupProxyMixed(e env) (*workloadRun, error) {
	f, err := newFabric()
	if err != nil {
		return nil, err
	}
	var started cleanup
	fail := func(err error) (*workloadRun, error) { started.run(); return nil, err }

	var nodes []*node
	var addrs []string
	resourceOf := make(map[string]string) // member address -> resource name
	for m := 0; m < proxyMembers; m++ {
		dir, err := stateDir(e.outDir, wProxyMixed)
		if err != nil {
			return fail(err)
		}
		started.add(func() { os.RemoveAll(dir) })
		n, err := startNode(f, nodeOptions{resource: "member" + strconv.Itoa(m), stable: hotKeywords, journalDir: dir})
		if err != nil {
			return fail(err)
		}
		started.add(n.close)
		nodes = append(nodes, n)
		addrs = append(addrs, n.addr)
		resourceOf[n.addr] = n.resource
	}
	clusterTel, clientTel := telemetry.NewRegistry(), telemetry.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Members: addrs, Cred: f.user, Trust: f.trust,
		Pool:      core.PoolOptions{Client: core.Options{Telemetry: clientTel}},
		Telemetry: clusterTel,
	})
	if err != nil {
		return fail(err)
	}
	started.add(func() { router.Close() })
	proxy := cluster.NewProxy(cluster.ProxyConfig{Credential: f.service, Trust: f.trust, Router: router, Telemetry: clusterTel})
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	started.add(func() { proxy.Close() })
	pool := core.NewPool(proxyAddr, f.user, f.trust, core.PoolOptions{Size: e.nproc, Client: core.Options{Telemetry: clientTel}})
	started.add(func() { pool.Close() })
	// The replay asks the same question twice outside the measured queue:
	// through the proxy, and directly of the owner.
	viaPool := core.NewPool(proxyAddr, f.user, f.trust, core.PoolOptions{Size: e.nproc})
	started.add(func() { viaPool.Close() })
	directPools := make(map[string]*core.Pool)
	for _, a := range addrs {
		p := core.NewPool(a, f.user, f.trust, core.PoolOptions{Size: e.nproc})
		started.add(func() { p.Close() })
		directPools[a] = p
	}
	for _, p := range append([]*core.Pool{pool, viaPool}, directPools[addrs[0]], directPools[addrs[1]]) {
		if err := fillPool(p, e.nproc); err != nil {
			return fail(err)
		}
	}
	for _, a := range addrs {
		if err := fillPool(router.Pool(a), routerPoolSize); err != nil {
			return fail(err)
		}
	}
	ring := cluster.NewRing(addrs, 0)
	kit := newInfoKit("", hotKeywords, 0, 0)
	jkit, err := newJobKit(e.outDir)
	if err != nil {
		return fail(err)
	}
	started.add(jkit.close)

	table := hotTable(e.seed)
	contacts := newContactRing(1024)
	var submits atomic.Int64
	var last, lastSubmit lastReplayed
	w := &workloadRun{
		name: wProxyMixed, rate: mixedRate, callers: 1, rootName: "proxy.info",
		newCaller: func(i int) *caller {
			return &caller{idx: i, gen: newGenerator(wProxyMixed, e.seed, i, e.nproc, table)}
		},
		do: func(ctx context.Context, c *caller, r request) error {
			switch r.kind {
			case opInfo:
				res, err := pool.QueryRaw(ctx, r.src)
				if err != nil {
					return err
				}
				c.last = lastOp{req: r, body: res.Raw}
				// The answer must come from the ring owner of the query's
				// routing key, and say so in its resource name.
				return verifyInfo(res.Entries, r, resourceOf[ring.Owner(kwName(r.kws[0]))])
			case opStatus:
				contact := contacts.pick(c.idx)
				st, err := pool.Status(ctx, contact)
				if err != nil {
					return err
				}
				reply, _ := json.Marshal(st) // the STATUS-OK payload, for the replay
				c.last = lastOp{req: request{kind: opStatus, src: contact}, body: string(reply)}
				if st.Contact != contact || st.State == job.Failed {
					return fmt.Errorf("status of %s: contact %q state %s", contact, st.Contact, st.State)
				}
				return nil
			default:
				t0 := time.Now()
				contact, err := pool.Submit(ctx, r.src)
				if err != nil {
					return err
				}
				submits.Add(1)
				c.last = lastOp{req: r, body: contact, marks: [3]int64{int64(time.Since(t0))}}
				u, perr := url.Parse(contact)
				if perr != nil || u.Host != ring.Owner(r.src) {
					return fmt.Errorf("job %q was not accepted by its ring owner %s", contact, ring.Owner(r.src))
				}
				contacts.add(contact)
				return nil
			}
		},
		replay: func(c *caller, root span) {
			switch c.last.req.kind {
			case opStatus:
				replayFrames(c.log.replayInto(root), c,
					wire.Frame{Verb: gram.VerbStatus, Payload: []byte(c.last.req.src)},
					wire.Frame{Verb: gram.VerbStatusOK, Payload: []byte(c.last.body)})
				return
			case opSubmit:
				// The root counts from the due time; SUBMIT to its
				// acknowledgement is the end of it.
				submit := c.last.marks[0]
				submitSpan := c.log.child(root, "gram.submit", root.End-submit, root.End)
				c.obs.addTime("gram.submit_us", time.Duration(submit))
				jkit.replaySubmit(c, submitSpan, c.last.req.src, c.last.body)
				lastSubmit.set(c.last)
				return
			}
			cur := c.log.replayInto(root)
			src := c.last.req.src
			var key string
			step(cur, c, "cluster.route_key", "cluster.route_key_ns", replayReps, func() { key = cluster.RouteKey(src) })
			var owner string
			step(cur, c, "cluster.ring_owner", "cluster.ring_owner_ns", replayReps, func() { owner = ring.Owner(key) })
			d := timeN(replayRepsSlow, func() { _, _ = directPools[owner].QueryRaw(context.Background(), src) })
			direct := cur.add("core.direct_query", d)
			c.obs.addTime("suite.direct_us", d)
			c.obs.addTime("suite.via_us", timeN(replayRepsSlow, func() { _, _ = viaPool.QueryRaw(context.Background(), src) }))
			kit.replay(c.log.replayInto(direct), c, c.last.req, c.last.body)
			last.set(c.last)
		},
		counters: func() counterSnap {
			snap := counterSnap{"suite_submits": float64(submits.Load())}
			for i, n := range nodes {
				snap["suite_provider_execs"] += float64(n.execs.Load())
				one := counterSnap{}
				one.addTelemetry(n.tel)
				snap["suite_member_requests_"+strconv.Itoa(i)] = one.family("infogram_requests_total")
				for k, v := range one {
					snap[k] += v
				}
			}
			snap.addTelemetry(clusterTel, clientTel)
			return snap
		},
		layers: func(d counterSnap, ops float64, m map[string]float64) {
			serviceLayers(d, ops, m)
			m["journal.appends_per_job"] = ratio(d["infogram_journal_appends_total"], d["suite_submits"])
			m["cluster.forwards_per_op"] = ratio(d["cluster_router_forwards_total"], ops)
			m["cluster.fallbacks"] = d["cluster_router_fallbacks_total"]
			m["cluster.relay_errors"] = d["cluster_proxy_relay_errors_total"]
			var most float64
			for i := range nodes {
				most = max(most, d["suite_member_requests_"+strconv.Itoa(i)])
			}
			m["cluster.member_share_max"] = ratio(most, d.family("infogram_requests_total"))
			m["cluster.relay_overhead_us"] = m["suite.via_us"] - m["suite.direct_us"]
			kit.quiet(last.get(), m)
			if op := lastSubmit.get(); op.body != "" {
				m["journal.append_allocs"] = jkit.appendAllocs(op.req.src, op.body)
			}
		},
		close: started.run,
	}
	// Warm-up: the pass over the hot keys fills both members' caches, and
	// the generated operations leave jobs behind for STATUS to ask about.
	first, err := pool.Submit(context.Background(), newGenerator(wJobCycle, e.seed, 0, 1, nil).next().src)
	if err != nil {
		return fail(err)
	}
	contacts.add(first)
	if err := warmUp(w, e.nproc, table); err != nil {
		return fail(err)
	}
	return w, nil
}

// contactRing holds the most recent job contacts for STATUS to ask about.
type contactRing struct {
	mu   sync.Mutex
	buf  []string
	next int
}

func newContactRing(n int) *contactRing { return &contactRing{buf: make([]string, 0, n)} }

func (r *contactRing) add(contact string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, contact)
		return
	}
	r.buf[r.next] = contact
	r.next = (r.next + 1) % len(r.buf)
}

// pick returns the contact the i-th request asks about.
func (r *contactRing) pick(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf[int(splitmix64(uint64(i))%uint64(len(r.buf)))]
}
