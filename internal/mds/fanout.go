package mds

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/ldif"
	"infogram/internal/session"
)

// GIIS scatter-gather: a bounded worker pool queries the federation's
// members with a per-member deadline, reusing authenticated connections
// across searches. Failures degrade the merged reply instead of failing
// it; the degraded status entry mirrors the gatekeeper's so clients need
// one detection path for both tiers.

const (
	// fanoutParallelism bounds concurrent member queries per search.
	// Unbounded fan-out would let one search against a large federation
	// spawn a goroutine and a connection per registrant.
	fanoutParallelism = 8
	// defaultMemberTimeout bounds one member query (slot wait + dial +
	// handshake + call) when GIISConfig.MemberTimeout is zero.
	defaultMemberTimeout = 5 * time.Second
)

// degradedObjectClass duplicates core.DegradedObjectClass (mds cannot
// import core — the dependency runs the other way) so a degraded GIIS
// reply is detected by the same client check as a degraded gatekeeper
// reply.
const degradedObjectClass = "InfoGramStatus"

// memberResult is one member's contribution to a scatter-gather: its
// reply body and the entries located in it, or the error that sidelined
// the member.
type memberResult struct {
	addr   string
	body   []byte
	blocks []ldif.Block
	err    error
}

// degradedSearchEntry builds the status entry appended to a partial
// merge: one "missing" attribute per unreachable member, plus the error
// that sidelined it.
func degradedSearchEntry(org string, failed []memberResult) ldif.Entry {
	if org == "" {
		org = "grid"
	}
	entry := ldif.Entry{DN: fmt.Sprintf("status=degraded, o=%s, o=grid", org)}
	entry.Add("objectclass", degradedObjectClass)
	entry.Add("degraded", "true")
	sort.Slice(failed, func(i, j int) bool { return failed[i].addr < failed[j].addr })
	for _, f := range failed {
		entry.Add("missing", f.addr)
		entry.Add("error:"+strings.ToLower(f.addr), f.err.Error())
	}
	return entry
}

// scatter sends the encoded request to every member through a bounded
// worker pool and returns one result per member, in member order.
func (g *GIIS) scatter(ctx context.Context, members []string, payload []byte) []memberResult {
	if len(members) == 0 {
		return nil
	}
	par := min(fanoutParallelism, len(members))
	results := make([]memberResult, len(members))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(members) {
					return
				}
				body, err := g.queryMember(ctx, members[i], payload)
				results[i] = splitReply(members[i], body, err)
			}
		}()
	}
	wg.Wait()
	return results
}

// splitReply locates the entries of one member's reply. A body that does
// not split is that member's failure, like a reply that never arrived.
func splitReply(addr string, body []byte, err error) memberResult {
	r := memberResult{addr: addr, body: body, err: err}
	if err == nil {
		r.blocks, r.err = ldif.Split(body, nil)
	}
	return r
}

// splice merges the members' replies byte for byte: every entry block,
// stably sorted by decoded DN (equal DNs keep member order), separated by
// blank lines, then the degraded status entry when a member failed. Only
// that status entry is rendered; member entries are copied as received.
func splice(org string, results []memberResult) ([]byte, error) {
	type piece struct {
		body []byte
		ldif.Block
	}
	n, size := 0, 0
	var failed []memberResult
	for _, r := range results {
		if r.err != nil {
			failed = append(failed, r)
			continue
		}
		n += len(r.blocks)
		for _, b := range r.blocks {
			size += b.End - b.Start + 2 // a newline to end it, a blank line after it
		}
	}
	pieces := make([]piece, 0, n)
	for _, r := range results {
		for _, b := range r.blocks {
			pieces = append(pieces, piece{r.body, b})
		}
	}
	slices.SortStableFunc(pieces, func(a, b piece) int { return strings.Compare(a.DN, b.DN) })
	out := make([]byte, 0, size)
	for i, p := range pieces {
		if i > 0 {
			out = append(out, '\n')
		}
		out = append(out, p.body[p.Start:p.End]...)
		if out[len(out)-1] != '\n' {
			out = append(out, '\n')
		}
	}
	if len(failed) > 0 {
		// The status entry goes last, after the DN sort, mirroring the
		// gatekeeper's partial-reply convention (core.DegradedObjectClass)
		// so clients detect degradation from either tier the same way.
		status, err := ldif.Marshal([]ldif.Entry{degradedSearchEntry(org, failed)})
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			out = append(out, '\n')
		}
		out = append(out, status...)
	}
	return out, nil
}

// memberTimeout is GIISConfig.MemberTimeout with its default applied.
func (g *GIIS) memberTimeout() time.Duration {
	if g.cfg.MemberTimeout > 0 {
		return g.cfg.MemberTimeout
	}
	return defaultMemberTimeout
}

// queryMember performs one authenticated search against a member within
// the member timeout, on a connection leased from the member's pool, and
// returns the reply body. A failed lease is discarded, not returned.
//
// A free slot with a fresh idle lease is the fast path: the lease's own
// I/O timeout, the member timeout, bounds the call, so no context is
// built. Everything else — the wait for a slot, the idle ping, the dial
// and handshake, a retry — runs under a context that ends when the
// member timeout, counted from the query's start, does.
func (g *GIIS) queryMember(ctx context.Context, addr string, payload []byte) ([]byte, error) {
	g.mu.Lock()
	pool := g.pools[addr]
	g.mu.Unlock()
	if pool == nil {
		return nil, session.ErrPoolClosed // the member expired, or the GIIS closed
	}
	deadline := time.Now().Add(g.memberTimeout())
	retry := true
	if cl, ok := pool.TryCheckout(); ok {
		body, err := cl.searchLDIF(ctx, payload)
		if err == nil {
			pool.Checkin(cl)
			return body, nil
		}
		pool.Discard(cl)
		if ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, err
		}
		// A lease younger than the pool's health check is not pinged, so
		// a member restart under traffic shows up here. Drop its idle
		// siblings too and try once on a fresh dial.
		pool.CloseIdle()
		retry = false
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	for {
		cl, err := pool.Checkout(ctx)
		if err != nil {
			return nil, err
		}
		body, err := cl.searchLDIF(ctx, payload)
		if err == nil {
			pool.Checkin(cl)
			return body, nil
		}
		pool.Discard(cl)
		if !retry || ctx.Err() != nil {
			return nil, err
		}
		pool.CloseIdle() // as above
		retry = false
	}
}
