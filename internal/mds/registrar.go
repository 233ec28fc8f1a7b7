package mds

import (
	"context"
	"sync"
	"time"

	"infogram/internal/clock"
	"infogram/internal/gsi"
)

// Registrar keeps a GRIS registered with a GIIS by re-registering
// periodically, the soft-state registration protocol MDS uses so dead
// resources age out of the aggregate (paper §3's "dynamic nature of
// Grids, including decentralized maintenance"). Pair it with a GIIS whose
// RegistrationTTL exceeds the period.
type Registrar struct {
	giisAddr string
	grisAddr string
	period   time.Duration
	cred     *gsi.Credential
	trust    *gsi.TrustStore
	clk      clock.Clock

	mu        sync.Mutex
	stop      chan struct{}
	stopped   bool
	successes int64
	failures  int64
}

// NewRegistrar builds (but does not start) a registrar announcing grisAddr
// to giisAddr every period.
func NewRegistrar(giisAddr, grisAddr string, period time.Duration, cred *gsi.Credential, trust *gsi.TrustStore) *Registrar {
	if period <= 0 {
		period = 30 * time.Second
	}
	return &Registrar{
		giisAddr: giisAddr,
		grisAddr: grisAddr,
		period:   period,
		cred:     cred,
		trust:    trust,
		clk:      clock.System,
		stop:     make(chan struct{}),
	}
}

// Start registers immediately and then on every period tick until Stop.
// The first registration's error is returned so deployments fail fast;
// later failures are counted and retried.
func (r *Registrar) Start() error {
	if err := r.registerOnce(); err != nil {
		return err
	}
	go r.loop()
	return nil
}

func (r *Registrar) loop() {
	ticker := time.NewTicker(r.period)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			_ = r.registerOnce()
		}
	}
}

func (r *Registrar) registerOnce() error {
	cl, err := DialContext(context.Background(), r.giisAddr, r.cred, r.trust, r.clk)
	if err != nil {
		r.count(false)
		return err
	}
	defer cl.Close()
	if err := cl.RegisterWith(r.grisAddr); err != nil {
		r.count(false)
		return err
	}
	r.count(true)
	return nil
}

func (r *Registrar) count(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.successes++
	} else {
		r.failures++
	}
}

// Counts reports successful and failed registration attempts.
func (r *Registrar) Counts() (successes, failures int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.successes, r.failures
}

// Stop ends the re-registration loop. Safe to call more than once.
func (r *Registrar) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
}
