package gram

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"infogram/internal/job"
	"infogram/internal/wire"
)

// A wedged callback listener must not delay deliveries to other contacts:
// per-contact serialization means the blocked dial holds only its own
// contact's lock. Before the fix a single mutex was held across the dial,
// so the healthy delivery below would stall behind the stuck one.
func TestCallbackDialerNoHeadOfLineBlocking(t *testing.T) {
	listener, err := NewCallbackListener()
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	stuck := make(chan struct{})
	d := NewCallbackDialer()
	defer d.Close()
	d.dial = func(addr string, timeout time.Duration) (*wire.Conn, error) {
		if addr == "wedged:1" {
			<-stuck // a listener that never completes the TCP handshake
			return nil, errors.New("dial timed out")
		}
		return wire.DialTimeout(addr, timeout)
	}

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		d.Notify("wedged:1", job.Event{Contact: "job-1", State: job.Active})
	}()
	// Give the wedged delivery time to enter its dial and take the
	// per-contact lock.
	for i := 0; i < 100; i++ {
		select {
		case <-blocked:
			t.Fatal("wedged dial returned early; the test lost its premise")
		default:
		}
		time.Sleep(time.Millisecond)
		if i > 5 {
			break
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Notify(listener.Contact(), job.Event{Contact: "job-2", State: job.Done})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery to a healthy contact stalled behind a wedged one")
	}
	select {
	case ev := <-listener.Events():
		if ev.Contact != "job-2" || ev.State != job.Done {
			t.Fatalf("listener got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy listener never received its event")
	}

	close(stuck)
	<-blocked
}

// Concurrent notifications to one contact stay ordered: the per-contact
// lock serializes dial+write, so the listener observes the same sequence
// the job manager emitted.
func TestCallbackDialerPerContactOrdering(t *testing.T) {
	listener, err := NewCallbackListener()
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	d := NewCallbackDialer()
	defer d.Close()

	states := []job.State{job.Pending, job.Active, job.Done}
	for _, st := range states {
		d.Notify(listener.Contact(), job.Event{Contact: "job-1", State: st})
	}
	for i, want := range states {
		select {
		case ev := <-listener.Events():
			if ev.State != want {
				t.Fatalf("event %d = %v; want %v", i, ev.State, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
}

// Close while a delivery is mid-dial: the dialer must not leak the
// connection that dial returns after the shutdown.
func TestCallbackDialerCloseDuringDial(t *testing.T) {
	listener, err := NewCallbackListener()
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	gate := make(chan struct{})
	d := NewCallbackDialer()
	d.dial = func(addr string, timeout time.Duration) (*wire.Conn, error) {
		<-gate
		return wire.DialTimeout(addr, timeout)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Notify(listener.Contact(), job.Event{Contact: "job-1", State: job.Done})
	}()
	time.Sleep(5 * time.Millisecond)
	go d.Close()
	time.Sleep(5 * time.Millisecond)
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Notify never returned after Close raced its dial")
	}
	// The connection dialed after Close must have been discarded: a write
	// through the dialer now is a no-op against a fresh map.
	d.mu.Lock()
	if len(d.contacts) != 0 || !d.closed {
		t.Fatalf("dialer state after Close: contacts=%d closed=%v", len(d.contacts), d.closed)
	}
	d.mu.Unlock()
}

// The dialer holds at most maxCallbackContacts connections: a new contact
// past the bound closes the least recently used one, and an event for an
// evicted contact dials it afresh.
func TestCallbackDialerEvictsLeastRecentlyUsed(t *testing.T) {
	type far struct {
		dials  int
		closed chan struct{}
	}
	var mu sync.Mutex
	fars := make(map[string]*far)
	d := NewCallbackDialer()
	defer d.Close()
	d.dial = func(addr string, timeout time.Duration) (*wire.Conn, error) {
		near, farEnd := net.Pipe()
		mu.Lock()
		f, ok := fars[addr]
		if !ok {
			f = &far{}
			fars[addr] = f
		}
		f.dials++
		closed := make(chan struct{})
		f.closed = closed
		mu.Unlock()
		go func() {
			// Drain until the dialer closes its end.
			_, _ = io.Copy(io.Discard, farEnd)
			close(closed)
		}()
		return wire.NewConn(near), nil
	}
	addr := func(i int) string { return fmt.Sprintf("listener-%d:1", i) }
	for i := 0; i < maxCallbackContacts; i++ {
		d.Notify(addr(i), job.Event{Contact: "job", State: job.Active})
	}
	d.Notify(addr(0), job.Event{Contact: "job", State: job.Active}) // 1 is now least recent
	d.Notify(addr(maxCallbackContacts), job.Event{Contact: "job", State: job.Active})

	d.mu.Lock()
	held := len(d.contacts)
	_, has0 := d.contacts[addr(0)]
	_, has1 := d.contacts[addr(1)]
	d.mu.Unlock()
	if held != maxCallbackContacts || !has0 || has1 {
		t.Fatalf("dialer holds %d contacts (listener-0 %v, listener-1 %v); want %d without listener-1",
			held, has0, has1, maxCallbackContacts)
	}
	mu.Lock()
	evicted := fars[addr(1)].closed
	mu.Unlock()
	select {
	case <-evicted:
	case <-time.After(5 * time.Second):
		t.Fatal("the evicted contact's connection was never closed")
	}

	d.Notify(addr(1), job.Event{Contact: "job", State: job.Done})
	mu.Lock()
	defer mu.Unlock()
	if fars[addr(1)].dials != 2 || fars[addr(0)].dials != 1 {
		t.Fatalf("dials: listener-1 %d, listener-0 %d; want 2 and 1", fars[addr(1)].dials, fars[addr(0)].dials)
	}
}
