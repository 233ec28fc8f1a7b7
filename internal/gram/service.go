package gram

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync/atomic"

	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/logging"
	"infogram/internal/rsl"
	"infogram/internal/session"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
	"infogram/internal/zerocopy"
)

// GRAMP protocol verbs. The protocol is request/response over one framed
// connection, after a GSI handshake performed by the gatekeeper.
const (
	VerbSubmit    = "SUBMIT"    // payload: RSL string
	VerbSubmitted = "SUBMITTED" // payload: job contact
	VerbStatus    = "STATUS"    // payload: job contact
	VerbStatusOK  = "STATUS-OK" // payload: JSON StatusReply
	VerbCancel    = "CANCEL"    // payload: job contact
	VerbCancelOK  = "CANCEL-OK"
	VerbSignal    = "SIGNAL" // payload: "contact signal" (suspend|resume)
	VerbSignalOK  = "SIGNAL-OK"
	VerbError     = "ERROR"    // payload: message
	VerbCallback  = "CALLBACK" // payload: JSON job.Event (server -> listener)
	VerbPing      = "PING"     // liveness probe
	VerbPong      = "PONG"
)

// StatusReply is the JSON payload of STATUS-OK.
type StatusReply struct {
	Contact  string    `json:"contact"`
	State    job.State `json:"state"`
	ExitCode int       `json:"exitCode"`
	Error    string    `json:"error,omitempty"`
	Stdout   string    `json:"stdout,omitempty"`
	Stderr   string    `json:"stderr,omitempty"`
	Restarts int       `json:"restarts,omitempty"`
}

// Config wires a GRAM service.
type Config struct {
	// Credential identifies the service; Trust validates clients.
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Gridmap maps authenticated identities to local accounts; a client
	// without an entry is rejected by the gatekeeper.
	Gridmap *gsi.Gridmap
	// Policy authorizes operations; nil allows all authenticated users.
	Policy *gsi.Policy
	// Backends are the local schedulers.
	Backends Backends
	// Log is the optional accounting log.
	Log *logging.Logger
	// Journal is the optional durable job-state layer (write-ahead
	// journal + snapshots). When set, every submission and transition is
	// journaled before it is acknowledged, the service serves the job
	// table the journal replayed into, and RecoverJournal resumes its
	// unfinished jobs after a crash. Nil keeps the in-memory behaviour.
	Journal *journal.Journal
	// Clock defaults to the system clock.
	Clock clock.Clock
	// Env provides server-side RSL substitution variables.
	Env rsl.Env
	// Tracer, when set, records a span tree per request and grants the
	// trace capability so clients can propagate their trace context.
	Tracer *telemetry.Tracer
}

// Service is the GRAM middle tier: a session server in front of the
// gatekeeper's job half, serving jobs only.
type Service struct {
	*Gatekeeper
	server *session.Server
}

// NewService builds a GRAM service. The job table is created when the
// listener address is known.
func NewService(cfg Config) *Service {
	s := &Service{Gatekeeper: NewGatekeeper(cfg.Policy, cfg.Env, ManagerConfig{
		Backends: cfg.Backends,
		Log:      cfg.Log,
		Journal:  cfg.Journal,
		Clock:    cfg.Clock,
	})}
	s.server = session.NewServer(session.Config{
		Credential: cfg.Credential,
		Trust:      cfg.Trust,
		Clock:      cfg.Clock,
		ErrorVerb:  VerbError,
		Gate:       cfg.Gridmap.Map,
		Tracer:     cfg.Tracer,
		Handler:    s.dispatch,
	})
	return s
}

// Listen binds the service to addr and returns the bound address.
func (s *Service) Listen(addr string) (string, error) {
	bound, err := s.server.Listen(addr)
	if err != nil {
		return "", err
	}
	s.Bind(bound)
	return bound, nil
}

// Addr returns the bound address.
func (s *Service) Addr() string { return s.server.Addr() }

// AcceptedConns reports connections accepted so far (experiment E3).
func (s *Service) AcceptedConns() int64 { return s.server.AcceptedConns() }

// Close shuts the service down.
func (s *Service) Close() error {
	err := s.server.Close()
	if gerr := s.Gatekeeper.Close(); err == nil {
		err = gerr
	}
	return err
}

// errorFrame builds an ERROR response.
func errorFrame(msg string) wire.Frame {
	return wire.Frame{Verb: VerbError, Payload: []byte(msg)}
}

// dispatch is the gatekeeper's session handler: the session has already
// authenticated the peer and mapped it to a local account; this serves
// one GRAMP request.
func (s *Service) dispatch(ctx context.Context, peer *session.Peer, f wire.Frame) wire.Frame {
	switch f.Verb {
	case VerbPing:
		return wire.Frame{Verb: VerbPong}
	case VerbSubmit:
		// The payload buffer is freshly allocated per frame and never
		// reused, so it may be aliased as a string without a copy.
		return s.handleSubmit(ctx, zerocopy.String(f.Payload), peer)
	}
	if resp, ok := s.Manager().Control(f); ok {
		return resp
	}
	return errorFrame(fmt.Sprintf("gram: unknown verb %s", f.Verb))
}

func (s *Service) handleSubmit(ctx context.Context, src string, peer *session.Peer) wire.Frame {
	// Only a $(NAME) reference reads the substitution environment.
	var env rsl.Env
	if strings.IndexByte(src, '$') >= 0 {
		env = s.Env(peer.Local)
	}
	req, err := xrsl.DecodeOne(src, env)
	if err != nil {
		return errorFrame(err.Error())
	}
	if req.Kind != xrsl.KindJob {
		// The whole point of the baseline: GRAM only executes jobs; info
		// queries need the separate MDS service and protocol (Figure 2).
		return errorFrame("gram: this service accepts job submissions only; query MDS for information")
	}
	contact, err := s.SubmitJob(ctx, req, peer.Identity, peer.Local)
	if err != nil {
		return errorFrame(err.Error())
	}
	return wire.Frame{Verb: VerbSubmitted, Payload: []byte(contact)}
}

// Gatekeeper is the job half of a gatekeeper, which GRAM and InfoGram
// serve identically (Figure 3): it authorizes job submissions, runs them
// through a job manager over the table its bound address names, delivers
// their callbacks, and resumes a journal's unfinished jobs. gram.Service
// and core.Service each put their own session server and dispatch in
// front of it.
type Gatekeeper struct {
	policy  *gsi.Policy
	env     rsl.Env
	mc      ManagerConfig // the manager's configuration, but for its Table
	dialer  *CallbackDialer
	manager atomic.Pointer[Manager]
}

// NewGatekeeper builds a gatekeeper that authorizes submissions with
// policy (nil allows all authenticated users) and offers env to RSL
// substitution. Its job manager is built from mc by Bind, once the
// listener address is known; mc.Notify is the gatekeeper's callback
// dialer.
func NewGatekeeper(policy *gsi.Policy, env rsl.Env, mc ManagerConfig) *Gatekeeper {
	if policy == nil {
		policy = gsi.AllowAll()
	}
	if mc.Clock == nil {
		mc.Clock = clock.System
	}
	g := &Gatekeeper{policy: policy, env: env, dialer: NewCallbackDialer()}
	mc.Notify = g.dialer
	g.mc = mc
	return g
}

// Bind builds the job table and manager for the address the service
// listens on, which every job contact names, and logs the service start.
func (g *Gatekeeper) Bind(bound string) {
	mc := g.mc
	mc.Table = ServedTable(mc.Journal, bound)
	g.manager.Store(NewManager(mc))
	_ = mc.Log.Append(logging.Record{Time: mc.Clock.Now(), Kind: logging.KindServiceStart})
}

// Manager returns the job manager (nil before Bind).
func (g *Gatekeeper) Manager() *Manager { return g.manager.Load() }

// Table returns the job table (nil before Bind).
func (g *Gatekeeper) Table() *job.Table {
	if m := g.manager.Load(); m != nil {
		return m.Table()
	}
	return nil
}

// Env merges the service environment with per-user bindings, the variable
// set GRAM exposes to RSL substitution.
func (g *Gatekeeper) Env(local string) rsl.Env {
	env := rsl.NewEnv("LOGNAME", local, "HOME", "/home/"+local)
	maps.Copy(env, g.env)
	return env
}

// SubmitJob authorizes identity to submit a decoded job and starts it
// under the local account, returning its contact. The job is recorded,
// and journaled, as req.Source: its canonical RSL.
func (g *Gatekeeper) SubmitJob(ctx context.Context, req *xrsl.Request, identity, local string) (string, error) {
	if err := g.policy.Authorize(identity, gsi.OpJobSubmit, g.mc.Clock.Now()); err != nil {
		return "", err
	}
	return g.manager.Load().Submit(ctx, req.Job, job.Record{
		Spec:     req.Source,
		Owner:    local,
		Identity: identity,
	})
}

// RecoverJournal resumes the unfinished jobs a journal replay found (see
// Manager.RecoverJournal). The table already answers for every replayed
// job under its original contact, finished ones with their recorded
// output; unfinished ones are resubmitted to their backends from the last
// journaled checkpoint with their remaining restart budget, and those
// that cannot be re-attached are failed with a "recovery:" annotation.
// Call it after Listen and before serving traffic; it returns the
// contacts of the resumed jobs and of those failed at recovery.
func (g *Gatekeeper) RecoverJournal(rec *journal.Recovered) (resumed, failed []string, err error) {
	m := g.manager.Load()
	if m == nil {
		return nil, nil, errors.New("gram: RecoverJournal before Listen")
	}
	return m.RecoverJournal(rec, g.Env)
}

// Close stops callback delivery and closes the journal. The service calls
// it once its session server has closed.
func (g *Gatekeeper) Close() error {
	g.dialer.Close()
	return g.mc.Journal.Close()
}

// Control answers the job-control verbs — STATUS, CANCEL, SIGNAL — that
// GRAM and InfoGram serve identically, which is what keeps InfoGram
// backwards compatible with GRAM clients. ok is false for any other verb.
func (m *Manager) Control(f wire.Frame) (resp wire.Frame, ok bool) {
	// The payload buffer is freshly allocated per frame and never reused,
	// so it may be aliased as a string without a copy.
	payload := strings.TrimSpace(zerocopy.String(f.Payload))
	switch f.Verb {
	case VerbStatus:
		return m.status(payload), true
	case VerbCancel:
		if err := m.Cancel(payload); err != nil {
			return errorFrame(err.Error()), true
		}
		return wire.Frame{Verb: VerbCancelOK, Payload: []byte(payload)}, true
	case VerbSignal:
		contact, signal, cut := strings.Cut(payload, " ")
		if !cut {
			return errorFrame("gram: SIGNAL payload must be 'contact signal'"), true
		}
		if err := m.Signal(contact, strings.TrimSpace(signal)); err != nil {
			return errorFrame(err.Error()), true
		}
		return wire.Frame{Verb: VerbSignalOK, Payload: []byte(contact)}, true
	}
	return wire.Frame{}, false
}

func (m *Manager) status(contact string) wire.Frame {
	rec, err := m.cfg.Table.Get(contact)
	if err != nil {
		return errorFrame(err.Error())
	}
	r := StatusReply{
		Contact:  rec.Contact,
		State:    rec.State,
		ExitCode: rec.ExitCode,
		Error:    rec.Error,
		Stdout:   rec.Stdout,
		Stderr:   rec.Stderr,
		Restarts: rec.Restarts,
	}
	size := 96 + len(r.Contact) + len(r.Error) + len(r.Stdout) + len(r.Stderr)
	return wire.Frame{Verb: VerbStatusOK, Payload: appendStatusReply(make([]byte, 0, size), &r)}
}
