package journal

import "encoding/json"

// Wire replication support: a follower gatekeeper tails this journal
// over the repl capability (internal/core serves it, internal/cluster
// consumes it). Replication ships records, never files: Subscribe cuts
// the folded state of every job into synthesized entries and registers
// a live tap in the same critical section, so the cut and the record
// stream compose without a gap or a duplicate — every append is either
// folded into the cut or delivered on the tap, never both, never
// neither. The follower Appends both to an ordinary journal of its own,
// so the on-disk layout stays this package's business alone.

// Tap is a live subscription to appended records. Records() yields each
// post-cut record's JSON payload (unframed); the channel closes when the
// journal closes or the subscriber falls more than its buffer behind —
// a closed tap means the follower must re-subscribe and re-sync, which
// trades leader memory (no unbounded backlog per slow follower) for a
// rare full re-ship.
type Tap struct {
	ch     chan []byte
	closed bool // guarded by the journal's mu
}

// Records is the live record stream. Payloads are fresh copies; the
// receiver owns them.
func (t *Tap) Records() <-chan []byte { return t.ch }

// Subscribe registers a live tap with the given channel buffer (minimum
// 16) and returns the cut: for every job, in first-submission order, a
// Submit at Submitted, a Checkpoint if one is set, then one State record
// at Updated carrying the rest of the folded state. Appended to an empty
// journal, the cut folds back into identical JobStates. The caller must
// Unsubscribe when done. Nil-safe: a nil journal returns nils.
func (j *Journal) Subscribe(buffer int) (*Tap, []Entry, error) {
	if j == nil {
		return nil, nil, nil
	}
	if buffer < 16 {
		buffer = 16
	}
	// Under the lock only references are taken: live states are copied,
	// retired jobs are immutable blobs. Decoding waits for the unlock.
	type ref struct {
		live *JobState
		blob []byte
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, nil, ErrClosed
	}
	refs := make([]ref, 0, len(j.order))
	for _, c := range j.order {
		if js, ok := j.state[c]; ok {
			cp := *js
			refs = append(refs, ref{live: &cp})
		} else if r, ok := j.retired[c]; ok {
			refs = append(refs, ref{blob: r.blob})
		}
	}
	t := &Tap{ch: make(chan []byte, buffer)}
	j.taps = append(j.taps, t)
	j.mu.Unlock()

	cut := make([]Entry, 0, 2*len(refs))
	for _, r := range refs {
		js := r.live
		if js == nil {
			js = new(JobState)
			if err := json.Unmarshal(r.blob, js); err != nil {
				continue // as jobStateLocked: an unreadable blob is no job
			}
		}
		cut = appendJobEntries(cut, js)
	}
	return t, cut, nil
}

// appendJobEntries appends the records that fold into js on an empty
// journal (see applyLocked). The pointers alias js, which the caller
// owns.
func appendJobEntries(dst []Entry, js *JobState) []Entry {
	updated := js.Updated.UnixNano()
	dst = append(dst, Entry{Kind: KindSubmit, Time: js.Submitted.UnixNano(), Contact: js.Contact,
		Spec: js.Spec, Owner: js.Owner, Identity: js.Identity})
	if js.Checkpoint != "" {
		dst = append(dst, Entry{Kind: KindCheckpoint, Time: updated, Contact: js.Contact, Checkpoint: js.Checkpoint})
	}
	return append(dst, Entry{Kind: KindState, Time: updated, Contact: js.Contact,
		State: js.State.String(), ExitCode: &js.ExitCode, Error: js.Error, Restarts: js.Restarts,
		WillRestart: js.WillRestart, Stdout: &js.Stdout, Stderr: &js.Stderr})
}

// Unsubscribe removes a tap; its channel closes. Safe to call twice.
func (j *Journal) Unsubscribe(t *Tap) {
	if j == nil || t == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropTapLocked(t)
}

// dropTapLocked closes and removes one tap. Caller holds mu.
func (j *Journal) dropTapLocked(t *Tap) {
	if t.closed {
		return
	}
	t.closed = true
	close(t.ch)
	kept := j.taps[:0]
	for _, x := range j.taps {
		if x != t {
			kept = append(kept, x)
		}
	}
	j.taps = kept
}

// notifyTapsLocked hands one appended record's JSON payload to every
// live tap. The payload is copied once (the caller's buffer is the
// journal's reusable scratch); the send never blocks the append path: a
// subscriber that cannot keep up is dropped (closed channel), which the
// replication layer turns into a full re-sync. Caller holds mu.
func (j *Journal) notifyTapsLocked(raw []byte) {
	if len(j.taps) == 0 {
		return
	}
	payload := append([]byte(nil), raw...)
	for i := 0; i < len(j.taps); {
		t := j.taps[i]
		select {
		case t.ch <- payload:
			i++
		default:
			j.dropTapLocked(t) // mutates j.taps in place; retry index i
		}
	}
}
