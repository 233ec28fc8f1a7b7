package vo

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/cache"
	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/quality"
	"infogram/internal/xrsl"
)

// Broker schedules jobs across the members of a virtual organization by
// querying each member's CPULoad through InfoGram with the cached response
// mode and a quality threshold — the "more sophisticated resource
// management strategies" the paper motivates quality-of-information for
// (§5.2). One client connection per member is reused across decisions.
type Broker struct {
	cred  *gsi.Credential
	trust *gsi.TrustStore

	mu      sync.Mutex
	clients map[string]*core.Client
	addrs   []string
	rr      atomic.Uint64 // round-robin tie-break counter
}

// NewBroker builds a broker over the given member addresses.
func NewBroker(addrs []string, cred *gsi.Credential, trust *gsi.TrustStore) *Broker {
	cp := make([]string, len(addrs))
	copy(cp, addrs)
	return &Broker{
		cred:    cred,
		trust:   trust,
		clients: make(map[string]*core.Client),
		addrs:   cp,
	}
}

// Close drops all member connections.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for addr, cl := range b.clients {
		cl.Close()
		delete(b.clients, addr)
	}
}

// client returns the cached client for addr, which connects on its first
// request and re-dials after a failure.
func (b *Broker) client(addr string) *core.Client {
	b.mu.Lock()
	defer b.mu.Unlock()
	cl, ok := b.clients[addr]
	if !ok {
		cl = core.NewClient(addr, b.cred, b.trust, core.Options{})
		b.clients[addr] = cl
	}
	return cl
}

// Load is one member's load observation.
type Load struct {
	Addr    string
	Load    int
	Quality quality.Score
}

// Loads queries every member's CPULoad. threshold is the quality tag value
// (0 disables); mode selects the response tag. Unreachable members are
// skipped.
func (b *Broker) Loads(mode cache.Mode, threshold quality.Score) ([]Load, error) {
	req := xrsl.InfoRequest{
		Keywords: []string{"CPULoad"},
		Response: mode,
		Quality:  threshold,
	}
	var out []Load
	for _, addr := range b.addrs {
		res, err := b.client(addr).Query(req)
		if err != nil || len(res.Entries) == 0 {
			continue
		}
		e := res.Entries[0]
		loadStr, _ := e.Get("CPULoad:load1")
		load, err := strconv.Atoi(loadStr)
		if err != nil {
			continue
		}
		l := Load{Addr: addr, Load: load, Quality: 100}
		if qs, ok := e.Get("quality:score"); ok {
			if f, err := strconv.ParseFloat(qs, 64); err == nil {
				l.Quality = quality.Score(f)
			}
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vo: no member answered a load query")
	}
	return out, nil
}

// LeastLoaded picks the member with the lowest load, rotating round-robin
// among equally loaded members so that a burst of fast jobs (whose load
// feedback lags behind the cache TTL) still spreads across the grid.
func (b *Broker) LeastLoaded(mode cache.Mode, threshold quality.Score) (Load, error) {
	loads, err := b.Loads(mode, threshold)
	if err != nil {
		return Load{}, err
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Load != loads[j].Load {
			return loads[i].Load < loads[j].Load
		}
		return loads[i].Addr < loads[j].Addr
	})
	ties := 1
	for ties < len(loads) && loads[ties].Load == loads[0].Load {
		ties++
	}
	n := b.rr.Add(1)
	return loads[int(n)%ties], nil
}

// Placement reports where a brokered job ran and its outcome.
type Placement struct {
	Addr    string
	Contact string
	Status  gram.StatusReply
}

// Run brokers one job: pick the least-loaded member, submit, and wait for
// a terminal state.
func (b *Broker) Run(ctx context.Context, req xrsl.JobRequest, mode cache.Mode, threshold quality.Score) (Placement, error) {
	target, err := b.LeastLoaded(mode, threshold)
	if err != nil {
		return Placement{}, err
	}
	return b.RunOn(ctx, target.Addr, req)
}

// RunOn submits a job to a specific member and waits for completion.
func (b *Broker) RunOn(ctx context.Context, addr string, req xrsl.JobRequest) (Placement, error) {
	cl := b.client(addr)
	contact, err := cl.SubmitJob(req)
	if err != nil {
		return Placement{}, err
	}
	st, err := cl.WaitTerminal(ctx, contact, 5*time.Millisecond)
	if err != nil {
		return Placement{Addr: addr, Contact: contact}, err
	}
	return Placement{Addr: addr, Contact: contact, Status: st}, nil
}

// Submit brokers a job without waiting; the caller polls via the returned
// placement's contact on the member's client.
func (b *Broker) Submit(req xrsl.JobRequest, mode cache.Mode, threshold quality.Score) (Placement, error) {
	target, err := b.LeastLoaded(mode, threshold)
	if err != nil {
		return Placement{}, err
	}
	contact, err := b.client(target.Addr).SubmitJob(req)
	if err != nil {
		return Placement{}, err
	}
	return Placement{Addr: target.Addr, Contact: contact}, nil
}

// Wait polls a previously submitted placement to a terminal state.
func (b *Broker) Wait(ctx context.Context, p Placement) (gram.StatusReply, error) {
	return b.client(p.Addr).WaitTerminal(ctx, p.Contact, 5*time.Millisecond)
}

// RunBatch brokers a batch of jobs with the given submission parallelism,
// returning placements in job order. Failed placements carry Err.
type BatchResult struct {
	Placement Placement
	Err       error
}

// RunBatch executes jobs across the grid with at most parallel in flight.
func (b *Broker) RunBatch(ctx context.Context, jobs []xrsl.JobRequest, parallel int, mode cache.Mode, threshold quality.Score) []BatchResult {
	if parallel <= 0 {
		parallel = 4
	}
	out := make([]BatchResult, len(jobs))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p, err := b.Run(ctx, jobs[i], mode, threshold)
			out[i] = BatchResult{Placement: p, Err: err}
		}(i)
	}
	wg.Wait()
	return out
}
