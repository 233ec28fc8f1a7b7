package gram

import (
	"encoding/json"
	"strconv"

	"infogram/internal/canonjson"
	"infogram/internal/job"
)

// The STATUS-OK payload is JSON in one canonical shape, the bytes
// json.Marshal gives a StatusReply, and both ends read and write it by
// hand. encoding/json stays the oracle (FuzzStatusReplyCodec): the
// encoder's bytes are json.Marshal's, and any payload outside the shape
// goes to json.Unmarshal, so a reply from any server decodes, or fails,
// as it always did.

// appendStatusReply appends r as json.Marshal encodes it; the state is
// its number.
func appendStatusReply(dst []byte, r *StatusReply) []byte {
	dst = append(dst, `{"contact":`...)
	dst = canonjson.AppendString(dst, r.Contact)
	dst = append(dst, `,"state":`...)
	dst = strconv.AppendInt(dst, int64(r.State), 10)
	dst = append(dst, `,"exitCode":`...)
	dst = strconv.AppendInt(dst, int64(r.ExitCode), 10)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = canonjson.AppendString(dst, r.Error)
	}
	if r.Stdout != "" {
		dst = append(dst, `,"stdout":`...)
		dst = canonjson.AppendString(dst, r.Stdout)
	}
	if r.Stderr != "" {
		dst = append(dst, `,"stderr":`...)
		dst = canonjson.AppendString(dst, r.Stderr)
	}
	if r.Restarts != 0 {
		dst = append(dst, `,"restarts":`...)
		dst = strconv.AppendInt(dst, int64(r.Restarts), 10)
	}
	return append(dst, '}')
}

// readStatusReply reads a STATUS-OK payload in its canonical shape.
func readStatusReply(r *canonjson.Reader) StatusReply {
	var s StatusReply
	r.Expect(`{"contact":`)
	s.Contact = r.Str()
	r.Expect(`,"state":`)
	s.State = job.State(r.Int())
	r.Expect(`,"exitCode":`)
	s.ExitCode = r.Int()
	if r.Lit(`,"error":`) {
		s.Error = r.Str()
	}
	if r.Lit(`,"stdout":`) {
		s.Stdout = r.Str()
	}
	if r.Lit(`,"stderr":`) {
		s.Stderr = r.Str()
	}
	if r.Lit(`,"restarts":`) {
		s.Restarts = r.Int()
	}
	r.Expect("}")
	return s
}

// decodeStatusReply decodes a STATUS-OK payload. The canonical shape is
// read by hand; anything else (whitespace, other key case or order,
// unknown keys, null) is json.Unmarshal's. Decoded strings alias
// payload, which must not change afterwards.
func decodeStatusReply(payload []byte) (StatusReply, error) {
	r := canonjson.NewReader(payload)
	if s := readStatusReply(&r); r.Done() {
		return s, nil
	}
	// Declared here, so only a payload outside the shape pays the heap
	// copy json.Unmarshal's pointer makes.
	var s StatusReply
	err := json.Unmarshal(payload, &s)
	return s, err
}
