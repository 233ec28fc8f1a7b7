package journal

import "infogram/internal/job"

// Wire replication support: a follower gatekeeper tails this journal
// over the repl capability (internal/core serves it, internal/cluster
// consumes it). Replication ships records, never files: Subscribe cuts
// every job of the journal's table into synthesized entries and registers
// a live tap in the same critical section. The table changes only under
// that lock, so the cut and the record stream compose without a gap or a
// duplicate — every append is either in the cut or delivered on the tap,
// never both, never neither. The follower Appends both to an ordinary
// journal of its own, whose table is the one it serves once promoted, so
// the on-disk layout stays this package's business alone.

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
// 16) and returns the cut: for every job in the table, ordered by contact,
// a Submit at Submitted, a Checkpoint if one is set, then one State record
// at Updated carrying the rest of the job. Appended to an empty journal,
// the cut folds back into identical records. The caller must Unsubscribe
// when done. Nil-safe: a nil journal returns nils.
func (j *Journal) Subscribe(buffer int) (*Tap, []Entry, error) {
	if j == nil {
		return nil, nil, nil
	}
	if buffer < 16 {
		buffer = 16
	}
	// Under the lock the jobs are only copied; the records are built from
	// the copy after the unlock.
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, nil, ErrClosed
	}
	jobs := j.table.List()
	t := &Tap{ch: make(chan []byte, buffer)}
	j.taps = append(j.taps, t)
	j.mu.Unlock()

	cut := make([]Entry, 0, 2*len(jobs))
	for i := range jobs {
		cut = appendJobEntries(cut, &jobs[i])
	}
	return t, cut, nil
}

// appendJobEntries appends the records that fold into rec on an empty
// table (see job.Table.Apply). The pointers alias rec, which the caller
// owns.
func appendJobEntries(dst []Entry, rec *job.Record) []Entry {
	updated := rec.Updated.UnixNano()
	dst = append(dst, Entry{Kind: KindSubmit, Time: rec.Submitted.UnixNano(), Contact: rec.Contact,
		Spec: rec.Spec, Owner: rec.Owner, Identity: rec.Identity})
	if rec.Checkpoint != "" {
		dst = append(dst, Entry{Kind: KindCheckpoint, Time: updated, Contact: rec.Contact, Checkpoint: rec.Checkpoint})
	}
	return append(dst, Entry{Kind: KindState, Time: updated, Contact: rec.Contact,
		State: rec.State.String(), ExitCode: &rec.ExitCode, Error: rec.Error, Restarts: rec.Restarts,
		WillRestart: rec.WillRestart, Stdout: &rec.Stdout, Stderr: &rec.Stderr})
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
