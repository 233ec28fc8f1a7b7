package journal

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"infogram/internal/job"
)

// TestAppendEntryMatchesEncodingJSON pins the hand-rolled append-path
// encoder to encoding/json semantics: every entry must decode back to the
// same Entry that json.Marshal's output does, across empty/set fields,
// pointers, escapes, and non-ASCII content.
func TestAppendEntryMatchesEncodingJSON(t *testing.T) {
	exit := 42
	negExit := -1
	empty := ""
	out := "line one\nline \"two\"\t\\end"
	utf := "héllo — ∆ grid"
	bad := "torn\xffbyte"
	entries := []Entry{
		{},
		{Kind: KindSubmit, Time: time.Date(2026, 8, 5, 12, 0, 0, 123456789, time.UTC).UnixNano(),
			Contact: "gram://host:4444/1/7", Spec: "&(executable=/bin/true)(jobtype=func)",
			Owner: "alice", Identity: "CN=Alice"},
		{Kind: KindState, Time: 1, Contact: "c1", State: "DONE",
			ExitCode: &exit, Restarts: 3, Stdout: &out, Stderr: &empty},
		{Kind: KindState, Contact: "c2", State: "FAILED", ExitCode: &negExit,
			Error: "exit code 1 (will restart)", WillRestart: true},
		{Kind: KindCheckpoint, Contact: "c3", Checkpoint: "step=9"},
		{Kind: KindSubmit, Contact: utf, Spec: bad, Error: "<&>"},
	}
	for i, e := range entries {
		hand := appendEntry(nil, e)
		std, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("entry %d: json.Marshal: %v", i, err)
		}
		var fromHand, fromStd Entry
		if err := json.Unmarshal(hand, &fromHand); err != nil {
			t.Fatalf("entry %d: hand encoding %q does not decode: %v", i, hand, err)
		}
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatalf("entry %d: std encoding does not decode: %v", i, err)
		}
		if !reflect.DeepEqual(fromHand, fromStd) {
			t.Fatalf("entry %d: hand and std encodings diverge:\nhand %s -> %+v\nstd  %s -> %+v",
				i, hand, fromHand, std, fromStd)
		}
	}
}

// TestAppendJobStateMatchesEncodingJSON pins the retirement/snapshot
// encoder to encoding/json the same way: both encodings must decode to
// the same JobState.
func TestAppendJobStateMatchesEncodingJSON(t *testing.T) {
	submitted := time.Date(2026, 8, 5, 12, 0, 0, 123456789, time.UTC)
	states := []JobState{
		{},
		{Contact: "gram://host:4444/1/7", Spec: "&(executable=/bin/true)(jobtype=func)",
			Owner: "alice", Identity: "CN=Alice", State: job.Active,
			Submitted: submitted, Updated: submitted.Add(time.Second)},
		{Contact: "c1", State: job.Done, ExitCode: 0, Restarts: 2,
			Stdout: "line one\nline \"two\"\t\\end", Checkpoint: "step=9",
			Submitted: submitted, Updated: submitted.In(time.FixedZone("CET", 3600))},
		{Contact: "c2", State: job.Failed, ExitCode: -1,
			Error: "exit code 1 (will restart)", Stderr: "boom", WillRestart: true},
		{Contact: "héllo — ∆ grid", Spec: "torn\xffbyte", Error: "<&>",
			State: job.Done, Submitted: submitted.Local()},
	}
	for i := range states {
		js := &states[i]
		hand := appendJobState(nil, js)
		std, err := json.Marshal(js)
		if err != nil {
			t.Fatalf("state %d: json.Marshal: %v", i, err)
		}
		var fromHand, fromStd JobState
		if err := json.Unmarshal(hand, &fromHand); err != nil {
			t.Fatalf("state %d: hand encoding %q does not decode: %v", i, hand, err)
		}
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatalf("state %d: std encoding does not decode: %v", i, err)
		}
		if !reflect.DeepEqual(fromHand, fromStd) {
			t.Fatalf("state %d: hand and std encodings diverge:\nhand %s -> %+v\nstd  %s -> %+v",
				i, hand, fromHand, std, fromStd)
		}
	}
}
