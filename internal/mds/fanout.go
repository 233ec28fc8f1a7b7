package mds

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/ldif"
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
	// defaultMemberTimeout bounds one member query (dial + handshake +
	// call) when GIISConfig.MemberTimeout is zero.
	defaultMemberTimeout = 5 * time.Second
	// memberPoolCap caps idle pooled connections per member; checkins
	// beyond it close the connection instead.
	memberPoolCap = 4
)

// degradedObjectClass duplicates core.DegradedObjectClass (mds cannot
// import core — the dependency runs the other way) so a degraded GIIS
// reply is detected by the same client check as a degraded gatekeeper
// reply.
const degradedObjectClass = "InfoGramStatus"

// memberResult is one member's contribution to a scatter-gather.
type memberResult struct {
	addr    string
	entries []ldif.Entry
	err     error
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

// scatter queries every member through a bounded worker pool and returns
// one result per member, in member order.
func (g *GIIS) scatter(ctx context.Context, members []string, req SearchRequest) []memberResult {
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
				entries, err := g.queryMember(ctx, members[i], req)
				results[i] = memberResult{addr: members[i], entries: entries, err: err}
			}
		}()
	}
	wg.Wait()
	return results
}

// queryMember performs one authenticated search against a member under
// the per-member deadline, drawing on the connection pool.
func (g *GIIS) queryMember(ctx context.Context, addr string, req SearchRequest) ([]ldif.Entry, error) {
	timeout := g.cfg.MemberTimeout
	if timeout <= 0 {
		timeout = defaultMemberTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cl, pooled := g.checkout(addr)
	if cl == nil {
		var err error
		cl, err = DialContext(ctx, addr, g.cfg.Credential, g.cfg.Trust, g.cfg.Clock)
		if err != nil {
			return nil, err
		}
	}
	entries, err := cl.SearchContext(ctx, req)
	if err != nil && pooled && ctx.Err() == nil {
		// A pooled connection can go stale between searches (member
		// restart, idle reset). One fresh dial distinguishes a stale
		// connection from a dead member.
		cl.Close()
		if cl, err = DialContext(ctx, addr, g.cfg.Credential, g.cfg.Trust, g.cfg.Clock); err != nil {
			return nil, err
		}
		entries, err = cl.SearchContext(ctx, req)
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	g.checkin(addr, cl)
	return entries, nil
}

// checkout pops an idle pooled client for addr, or (nil, false) when the
// caller must dial.
func (g *GIIS) checkout(addr string) (*Client, bool) {
	g.connMu.Lock()
	defer g.connMu.Unlock()
	pool := g.conns[addr]
	if len(pool) == 0 {
		return nil, false
	}
	cl := pool[len(pool)-1]
	g.conns[addr] = pool[:len(pool)-1]
	return cl, true
}

// checkin returns a healthy client to the pool, closing it instead when
// the pool is full or the GIIS has shut down.
func (g *GIIS) checkin(addr string, cl *Client) {
	g.connMu.Lock()
	if g.closed || len(g.conns[addr]) >= memberPoolCap {
		g.connMu.Unlock()
		cl.Close()
		return
	}
	g.conns[addr] = append(g.conns[addr], cl)
	g.connMu.Unlock()
}
