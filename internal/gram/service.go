package gram

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

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
	// journaled before it is acknowledged, and RecoverJournal can rebuild
	// the job table after a crash. Nil keeps the in-memory behaviour.
	Journal *journal.Journal
	// Clock defaults to the system clock.
	Clock clock.Clock
	// Env provides server-side RSL substitution variables.
	Env rsl.Env
	// Tracer, when set, records a span tree per request and grants the
	// trace capability so clients can propagate their trace context.
	Tracer *telemetry.Tracer
}

// Service is the GRAM middle tier: gatekeeper plus job managers.
type Service struct {
	cfg     Config
	manager *Manager
	table   *job.Table
	server  *session.Server
	dialer  *CallbackDialer

	mu sync.Mutex
}

// NewService builds a GRAM service. The job table is created when the
// listener address is known.
func NewService(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Policy == nil {
		cfg.Policy = gsi.AllowAll()
	}
	s := &Service{cfg: cfg, dialer: NewCallbackDialer()}
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
	s.mu.Lock()
	s.table = job.NewTable(bound)
	s.manager = NewManager(ManagerConfig{
		Table:    s.table,
		Backends: s.cfg.Backends,
		Log:      s.cfg.Log,
		Journal:  s.cfg.Journal,
		Notify:   s.dialer,
		Clock:    s.cfg.Clock,
	})
	s.mu.Unlock()
	_ = s.cfg.Log.Append(logging.Record{Time: s.cfg.Clock.Now(), Kind: logging.KindServiceStart})
	return bound, nil
}

// Addr returns the bound address.
func (s *Service) Addr() string { return s.server.Addr() }

// Table returns the job table (nil before Listen).
func (s *Service) Table() *job.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table
}

// Manager returns the job manager (nil before Listen).
func (s *Service) Manager() *Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manager
}

// AcceptedConns reports connections accepted so far (experiment E3).
func (s *Service) AcceptedConns() int64 { return s.server.AcceptedConns() }

// Close shuts the service down.
func (s *Service) Close() error {
	s.dialer.Close()
	err := s.server.Close()
	if jerr := s.cfg.Journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// RecoverJournal rebuilds the job table from a journal replay (see
// Manager.RecoverJournal). Call it after Listen and before serving
// traffic. It returns the contacts of the resumed (non-terminal) jobs.
func (s *Service) RecoverJournal(rec *journal.Recovered) ([]string, error) {
	return s.Manager().RecoverJournal(rec, s.env)
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
		return s.handleSubmit(ctx, string(f.Payload), peer)
	}
	if resp, ok := s.manager.Control(f); ok {
		return resp
	}
	return errorFrame(fmt.Sprintf("gram: unknown verb %s", f.Verb))
}

func (s *Service) handleSubmit(ctx context.Context, src string, peer *session.Peer) wire.Frame {
	if err := s.cfg.Policy.Authorize(peer.Identity, gsi.OpJobSubmit, s.cfg.Clock.Now()); err != nil {
		return errorFrame(err.Error())
	}
	// Only a $(NAME) reference reads the substitution environment.
	var env rsl.Env
	if strings.IndexByte(src, '$') >= 0 {
		env = s.env(peer.Local)
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
	contact, err := s.manager.Submit(ctx, req.Job, job.Record{
		Spec:     src,
		Owner:    peer.Local,
		Identity: peer.Identity,
	})
	if err != nil {
		return errorFrame(err.Error())
	}
	return wire.Frame{Verb: VerbSubmitted, Payload: []byte(contact)}
}

// env merges the service environment with per-user bindings, the variable
// set GRAM exposes to RSL substitution.
func (s *Service) env(local string) rsl.Env {
	env := rsl.NewEnv("LOGNAME", local, "HOME", "/home/"+local)
	for k, v := range s.cfg.Env {
		env[k] = v
	}
	return env
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
	b, err := json.Marshal(StatusReply{
		Contact:  rec.Contact,
		State:    rec.State,
		ExitCode: rec.ExitCode,
		Error:    rec.Error,
		Stdout:   rec.Stdout,
		Stderr:   rec.Stderr,
		Restarts: rec.Restarts,
	})
	if err != nil {
		return errorFrame(err.Error())
	}
	return wire.Frame{Verb: VerbStatusOK, Payload: b}
}
