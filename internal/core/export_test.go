package core

import "infogram/internal/session"

// RaceEnabled lets the external tests skip what the race detector slows
// past their budget.
const RaceEnabled = raceEnabled

// SetSession replaces the client's live session, so a test can hand it a
// connection in a state no real server produces on demand.
func (c *Client) SetSession(s *session.Client) {
	c.mu.Lock()
	c.sess = s
	c.mu.Unlock()
}
