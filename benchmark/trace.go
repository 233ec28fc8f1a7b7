package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans of one operation share a trace
// identifier; parent is 0 for the root (the over-the-wire call). A replayed
// span was timed after the call returned, by running the call's own bytes
// through one layer: its duration is measured, its position is assigned.
type span struct {
	Trace    uint64 `json:"trace"`
	Span     uint64 `json:"span"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// spanLog is one caller's in-memory span buffer; callers never share one,
// so recording takes no lock. IDs are unique across callers because the
// caller index is folded into the high bits.
type spanLog struct {
	base  uint64
	next  uint64
	spans []span
}

func newSpanLog(caller int) *spanLog {
	return &spanLog{base: uint64(caller+1) << 40}
}

func (l *spanLog) id() uint64 {
	l.next++
	return l.base | l.next
}

// root records the over-the-wire call and returns it so children can
// attach.
func (l *spanLog) root(name string, start, end int64) span {
	s := span{Trace: l.id(), Name: name, Start: start, End: end}
	s.Span = s.Trace
	l.spans = append(l.spans, s)
	return s
}

// child records a sub-interval of parent that was timed for real.
func (l *spanLog) child(parent span, name string, start, end int64) span {
	s := span{Trace: parent.Trace, Span: l.id(), Parent: parent.Span, Name: name, Start: start, End: end}
	l.spans = append(l.spans, s)
	return s
}

// replayCursor lays replayed layer spans end to end inside a parent span:
// the replay happens after the real call returned, so only the durations
// are measured — the positions are assigned.
type replayCursor struct {
	log    *spanLog
	parent span
	at     int64
}

func (l *spanLog) replayInto(parent span) *replayCursor {
	return &replayCursor{log: l, parent: parent, at: parent.Start}
}

// add appends one replayed span of duration d and returns it, so that a
// replayed call can itself be broken down.
func (c *replayCursor) add(name string, d time.Duration) span {
	s := span{Trace: c.parent.Trace, Span: c.log.id(), Parent: c.parent.Span, Name: name,
		Start: c.at, End: c.at + int64(d), Replayed: true}
	c.log.spans = append(c.log.spans, s)
	c.at = s.End
	return s
}

// selfTimesBySpan returns each span's self time by span ID: its duration
// minus the part of its interval that its child spans cover.
func selfTimesBySpan(spans []span) map[uint64]int64 {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.Span] = s
	}
	covered := make(map[uint64]int64)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if d := min(s.End, p.End) - max(s.Start, p.Start); d > 0 {
			covered[p.Span] += d
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.Span] = max(0, s.End-s.Start-covered[s.Span])
	}
	return self
}

// layerBudget reduces a traced pass to the layer budget of the traces whose
// root span is named rootName: the median root duration, the sum over every
// replayed span name of its median self time per trace, and the remainder —
// what outside timing cannot attribute to a layer: dispatch, admission,
// system calls, scheduling. Spans that only subdivide the root (SUBMIT,
// wait for DONE) are not layers; their self time stays in the remainder.
// Every root contributes to the round trip, replayed or not.
// roundtrip = layers + residual holds by construction.
func layerBudget(spans []span, rootName string) (roundtripNS, layersNS, residualNS float64) {
	inBudget := make(map[uint64]bool)
	var roots []int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			inBudget[s.Trace] = true
			roots = append(roots, s.End-s.Start)
		}
	}
	roundtripNS = medianInt(roots)
	var kept []span
	for _, s := range spans {
		if inBudget[s.Trace] {
			kept = append(kept, s)
		}
	}
	// Spans of one name within one trace (two journal appends, say) count
	// together: sum per trace first, then take the median across traces.
	type key struct {
		trace uint64
		name  string
	}
	perTrace := make(map[key]int64)
	self := selfTimesBySpan(kept)
	for _, s := range kept {
		if s.Replayed {
			perTrace[key{s.Trace, s.Name}] += self[s.Span]
		}
	}
	byName := make(map[string][]int64)
	for k, v := range perTrace {
		byName[k.name] = append(byName[k.name], v)
	}
	for _, vs := range byName {
		layersNS += medianInt(vs)
	}
	return roundtripNS, layersNS, roundtripNS - layersNS
}

// writeTrace writes spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
