package gram

import (
	"encoding/json"
	"sync"
	"time"

	"infogram/internal/job"
	"infogram/internal/wire"
)

// DefaultCallbackTimeout bounds each callback dial and write. A callback
// listener is an arbitrary remote client; without a deadline one wedged
// listener would park the job-manager goroutine delivering to it.
const DefaultCallbackTimeout = 2 * time.Second

// maxCallbackContacts bounds the contacts a CallbackDialer holds a
// connection to; past it, the least recently used is closed.
const maxCallbackContacts = 64

// CallbackDialer pushes job events to client callback listeners, caching
// one connection per contact. Delivery is best-effort: a client that has
// gone away is forgotten; pollers still see the final job state through
// STATUS.
//
// Delivery is serialized per contact, not globally: the dialer's own lock
// only guards the contact map, and each contact carries its own lock held
// across the (deadline-bounded) dial and write. A dead or slow listener
// therefore delays only its own events — notifications to every other
// contact proceed concurrently.
//
// At most maxCallbackContacts contacts are held; a new one beyond that
// closes the least recently used, which a later event simply re-dials.
type CallbackDialer struct {
	timeout time.Duration
	// dial is the connection factory, replaceable in tests.
	dial func(addr string, timeout time.Duration) (*wire.Conn, error)

	mu       sync.Mutex
	contacts map[string]*callbackConn
	uses     uint64 // Notify calls so far, the clock of callbackConn.used
	closed   bool
}

// callbackConn is the per-contact delivery state. Its mutex serializes
// dial+write for one contact so events stay ordered on the wire.
type callbackConn struct {
	used uint64 // guarded by the dialer's mu

	mu      sync.Mutex
	conn    *wire.Conn
	dropped bool // evicted or closed: the dialer no longer holds it
}

// NewCallbackDialer returns an empty dialer with the default per-delivery
// timeout.
func NewCallbackDialer() *CallbackDialer {
	return &CallbackDialer{
		timeout:  DefaultCallbackTimeout,
		dial:     wire.DialTimeout,
		contacts: make(map[string]*callbackConn),
	}
}

var _ Notifier = (*CallbackDialer)(nil)

// Notify implements Notifier by sending a CALLBACK frame to the contact.
func (d *CallbackDialer) Notify(contact string, ev job.Event) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	// An entry dropped between the lookup and its lock is no longer
	// held by the dialer; look again (Close makes the lookup fail).
	var cc *callbackConn
	for {
		if cc = d.lookup(contact); cc == nil {
			return
		}
		cc.mu.Lock()
		if !cc.dropped {
			break
		}
		cc.mu.Unlock()
	}
	defer cc.mu.Unlock()
	if cc.conn == nil {
		conn, err := d.dial(contact, d.timeout)
		if err != nil {
			return
		}
		conn.SetIOTimeout(d.timeout)
		cc.conn = conn
	}
	if err := cc.conn.Write(wire.Frame{Verb: VerbCallback, Payload: payload}); err != nil {
		cc.conn.Close()
		cc.conn = nil
	}
}

// lookup returns contact's entry, creating it (and evicting the least
// recently used past maxCallbackContacts) if needed; nil after Close.
func (d *CallbackDialer) lookup(contact string) *callbackConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.uses++
	cc, ok := d.contacts[contact]
	if !ok {
		if len(d.contacts) >= maxCallbackContacts {
			lru, oldest := "", ^uint64(0)
			for c, x := range d.contacts {
				if x.used < oldest {
					lru, oldest = c, x.used
				}
			}
			// The close waits out an in-flight delivery on that contact
			// (bounded by the timeout), so it runs off this caller's path.
			go d.contacts[lru].drop()
			delete(d.contacts, lru)
		}
		cc = &callbackConn{}
		d.contacts[contact] = cc
	}
	cc.used = d.uses
	return cc
}

// drop closes the entry's connection, if any, and marks it no longer held.
// An in-flight delivery finishes (or times out) first.
func (cc *callbackConn) drop() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.dropped = true
	if cc.conn != nil {
		cc.conn.Close()
		cc.conn = nil
	}
}

// Close drops all cached connections.
func (d *CallbackDialer) Close() {
	d.mu.Lock()
	d.closed = true
	contacts := make([]*callbackConn, 0, len(d.contacts))
	for c, cc := range d.contacts {
		contacts = append(contacts, cc)
		delete(d.contacts, c)
	}
	d.mu.Unlock()
	// Take each per-contact lock outside the map lock: an in-flight
	// delivery finishes (or times out) before its connection is closed.
	for _, cc := range contacts {
		cc.drop()
	}
}
