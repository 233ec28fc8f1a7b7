package config

import (
	"fmt"
	"strings"
	"sync"

	"infogram/internal/provider"
)

// Manager applies configurations to a provider registry and supports hot
// reload: re-loading a changed configuration updates existing keywords,
// adds new ones, and unregisters keywords that disappeared — without
// touching providers registered outside the configuration (such as the
// built-in Runtime provider). This realizes the "configure the system
// monitor service with customized information providers" component of
// Figure 3 as a live operation.
type Manager struct {
	reg *provider.Registry

	mu      sync.Mutex
	applied map[string]bool // lower-cased keywords this manager registered
}

// NewManager manages configuration-driven providers inside reg.
func NewManager(reg *provider.Registry) *Manager {
	return &Manager{reg: reg, applied: make(map[string]bool)}
}

// Load applies cfg: every entry is (re)registered; previously applied
// keywords absent from cfg are unregistered. It returns the number of
// added/updated and removed keywords.
func (m *Manager) Load(cfg *Config) (updated, removed int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	next := make(map[string]bool, len(cfg.Entries))
	for _, e := range cfg.Entries {
		p, perr := provider.NewExecProvider(e.Keyword, e.Command)
		if perr != nil {
			return updated, removed, fmt.Errorf("config: reload %q: %w", e.Keyword, perr)
		}
		m.reg.Register(p, provider.RegisterOptions{
			TTL:     e.TTL,
			Delay:   e.Delay,
			Degrade: e.Degrade,
			Format:  e.Format,
		})
		next[strings.ToLower(e.Keyword)] = true
		updated++
	}
	for kw := range m.applied {
		if !next[kw] {
			if m.reg.Unregister(kw) {
				removed++
			}
		}
	}
	m.applied = next
	return updated, removed, nil
}

// LoadFile reads and applies a configuration file.
func (m *Manager) LoadFile(path string) (updated, removed int, err error) {
	cfg, err := Load(path)
	if err != nil {
		return 0, 0, err
	}
	return m.Load(cfg)
}

// Keywords returns the lower-cased keywords currently managed.
func (m *Manager) Keywords() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.applied))
	for kw := range m.applied {
		out = append(out, kw)
	}
	return out
}
