package journal

import (
	"encoding/json"
	"strconv"
	"time"
)

// appendEntry appends e to dst as the JSON object encoding/json would
// produce (minus its HTML-safe escaping, which Unmarshal never required).
// The append path runs for every job submission and transition, and
// reflection-driven Marshal — mostly its time.Time formatting — dominated
// the hot-path profile; replay keeps using encoding/json, so the two
// encoders are held equivalent by TestAppendEntryMatchesEncodingJSON.
func appendEntry(dst []byte, e Entry) []byte {
	dst = append(dst, `{"k":`...)
	dst = strconv.AppendUint(dst, uint64(e.Kind), 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, `,"c":`...)
	dst = appendJSONString(dst, e.Contact)
	if e.Spec != "" {
		dst = append(dst, `,"spec":`...)
		dst = appendJSONString(dst, e.Spec)
	}
	if e.Owner != "" {
		dst = append(dst, `,"owner":`...)
		dst = appendJSONString(dst, e.Owner)
	}
	if e.Identity != "" {
		dst = append(dst, `,"ident":`...)
		dst = appendJSONString(dst, e.Identity)
	}
	if e.State != "" {
		dst = append(dst, `,"state":`...)
		dst = appendJSONString(dst, e.State)
	}
	if e.ExitCode != nil {
		dst = append(dst, `,"exit":`...)
		dst = strconv.AppendInt(dst, int64(*e.ExitCode), 10)
	}
	if e.Error != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, e.Error)
	}
	if e.Restarts != 0 {
		dst = append(dst, `,"restarts":`...)
		dst = strconv.AppendInt(dst, int64(e.Restarts), 10)
	}
	if e.WillRestart {
		dst = append(dst, `,"willRestart":true`...)
	}
	if e.Stdout != nil {
		dst = append(dst, `,"stdout":`...)
		dst = appendJSONString(dst, *e.Stdout)
	}
	if e.Stderr != nil {
		dst = append(dst, `,"stderr":`...)
		dst = appendJSONString(dst, *e.Stderr)
	}
	if e.Checkpoint != "" {
		dst = append(dst, `,"ckpt":`...)
		dst = appendJSONString(dst, e.Checkpoint)
	}
	return append(dst, '}')
}

// appendJobState appends js as the JSON object encoding/json would
// produce for a JobState. It runs per job at snapshot time; on small hosts
// the reflection marshal was a measurable slice of the per-job budget.
// TestAppendJobStateMatchesEncodingJSON holds the encoders equivalent.
func appendJobState(dst []byte, js *JobState) []byte {
	dst = append(dst, `{"contact":`...)
	dst = appendJSONString(dst, js.Contact)
	if js.Spec != "" {
		dst = append(dst, `,"spec":`...)
		dst = appendJSONString(dst, js.Spec)
	}
	if js.Owner != "" {
		dst = append(dst, `,"owner":`...)
		dst = appendJSONString(dst, js.Owner)
	}
	if js.Identity != "" {
		dst = append(dst, `,"identity":`...)
		dst = appendJSONString(dst, js.Identity)
	}
	dst = append(dst, `,"state":`...)
	dst = strconv.AppendInt(dst, int64(js.State), 10)
	if js.ExitCode != 0 {
		dst = append(dst, `,"exitCode":`...)
		dst = strconv.AppendInt(dst, int64(js.ExitCode), 10)
	}
	if js.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, js.Error)
	}
	if js.Stdout != "" {
		dst = append(dst, `,"stdout":`...)
		dst = appendJSONString(dst, js.Stdout)
	}
	if js.Stderr != "" {
		dst = append(dst, `,"stderr":`...)
		dst = appendJSONString(dst, js.Stderr)
	}
	if js.Restarts != 0 {
		dst = append(dst, `,"restarts":`...)
		dst = strconv.AppendInt(dst, int64(js.Restarts), 10)
	}
	if js.WillRestart {
		dst = append(dst, `,"willRestart":true`...)
	}
	if js.Checkpoint != "" {
		dst = append(dst, `,"checkpoint":`...)
		dst = appendJSONString(dst, js.Checkpoint)
	}
	dst = append(dst, `,"submitted":"`...)
	dst = js.Submitted.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","updated":"`...)
	dst = js.Updated.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"', '}')
}

// appendJSONString appends s as a quoted JSON string. The fast path
// covers printable ASCII without quotes or backslashes — contacts, specs,
// and states in practice; anything else (control bytes, non-ASCII,
// escapes) takes encoding/json's encoder so the semantics, including
// invalid-UTF-8 replacement, stay identical.
// It is not canonjson.AppendString: the journal drops the HTML escaping.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
