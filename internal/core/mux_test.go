package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/gsi"
	"infogram/internal/provider"
	"infogram/internal/wire"
)

// gateProvider blocks Fetch until its gate releases, simulating a slow
// information source.
type gateProvider struct {
	keyword string
	gate    chan struct{}
	attrs   provider.Attributes
}

func (g *gateProvider) Keyword() string { return g.keyword }
func (g *gateProvider) Source() string  { return "test:gate" }
func (g *gateProvider) Fetch(ctx context.Context) (provider.Attributes, error) {
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.attrs, nil
}

// A single mux'd client must survive concurrent mixed traffic with every
// response routed to its caller (run under -race).
func TestMuxClientConcurrentRequests(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "total", Value: "1024"}},
	}, provider.RegisterOptions{TTL: time.Second})
	g := newTestGrid(t, reg)

	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const workers, iters = 16, 10
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					if err := cl.Ping(); err != nil {
						errCh <- fmt.Errorf("worker %d ping: %w", w, err)
						return
					}
					continue
				}
				res, err := cl.QueryRaw("&(info=Memory)")
				if err != nil {
					errCh <- fmt.Errorf("worker %d query: %w", w, err)
					return
				}
				if len(res.Entries) == 0 {
					errCh <- fmt.Errorf("worker %d: empty query result", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// A seed-era client that never sends HELLO must still work against the new
// server: the serial one-frame-in, one-frame-out protocol is unchanged.
// This speaks the raw wire protocol exactly as the pre-mux client did.
func TestSerialWireCompatAgainstMuxServer(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "free", Value: "512"}},
	}, provider.RegisterOptions{TTL: time.Second})
	g := newTestGrid(t, reg)

	conn, err := wire.Dial(g.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := gsi.ClientHandshake(conn, g.user, g.trust, time.Now()); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	// Two serial round trips prove the connection stays in serial framing
	// (a mux'd server reply would be rejected as an unknown verb or a
	// mangled payload here).
	for i := 0; i < 2; i++ {
		resp, err := conn.Call(wire.Frame{Verb: gram.VerbPing})
		if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if resp.Verb != gram.VerbPong {
			t.Fatalf("ping %d: verb %s, want %s", i, resp.Verb, gram.VerbPong)
		}
		if len(resp.Payload) != 0 {
			t.Fatalf("ping %d: unexpected payload %q (mux framing leaked into a serial connection?)", i, resp.Payload)
		}
	}
	resp, err := conn.Call(wire.Frame{Verb: gram.VerbSubmit, Payload: []byte("&(info=Memory)")})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.Verb != core.VerbResultLDIF {
		t.Fatalf("query: verb %s, want %s", resp.Verb, core.VerbResultLDIF)
	}
}

// The DisableMux escape hatch keeps the high-level client on the serial
// protocol even against a mux-aware server.
func TestDisableMuxClient(t *testing.T) {
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Memory",
		Values:      provider.Attributes{{Name: "free", Value: "512"}},
	}, provider.RegisterOptions{TTL: time.Second})
	g := newTestGrid(t, reg)

	cl, err := core.DialWithOptions(g.addr, g.user, g.trust, core.Options{DisableMux: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	res, err := cl.QueryRaw("&(info=Memory)")
	if err != nil {
		t.Fatalf("QueryRaw: %v", err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("empty query result")
	}
}

// A slow request on a mux'd connection must not head-of-line block a fast
// one behind it — the whole point of per-connection request concurrency.
func TestMuxNoHeadOfLineBlocking(t *testing.T) {
	gate := make(chan struct{})
	reg := provider.NewRegistry(nil)
	reg.Register(&gateProvider{
		keyword: "Slow",
		gate:    gate,
		attrs:   provider.Attributes{{Name: "v", Value: "1"}},
	}, provider.RegisterOptions{}) // TTL 0: fetch on every query
	reg.Register(&provider.StaticProvider{
		KeywordName: "Fast",
		Values:      provider.Attributes{{Name: "v", Value: "2"}},
	}, provider.RegisterOptions{TTL: time.Second})
	g := newTestGrid(t, reg)

	cl, err := core.Dial(g.addr, g.user, g.trust)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cl.QueryRaw("&(info=Slow)")
		slowDone <- err
	}()
	// Give the slow request time to reach the server first, so the fast
	// one genuinely queues behind it on the same connection.
	time.Sleep(50 * time.Millisecond)

	// The fast query must complete while the slow one is still parked on
	// its provider. Bound it so a head-of-line regression fails the test
	// instead of deadlocking it.
	fastDone := make(chan error, 1)
	go func() {
		_, err := cl.QueryRaw("&(info=Fast)")
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast query: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast query blocked behind the slow one: head-of-line blocking")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow query finished before its gate released: %v", err)
	default:
	}

	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow query after release: %v", err)
	}
}
