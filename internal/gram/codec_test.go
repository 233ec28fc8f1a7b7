package gram

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"infogram/internal/canonjson"
	"infogram/internal/job"
)

// checkStatusDecode compares decodeStatusReply with json.Unmarshal on p:
// the same accept or reject, and the same value.
func checkStatusDecode(t *testing.T, p []byte) {
	t.Helper()
	var want StatusReply
	got, gerr := decodeStatusReply(p)
	werr := json.Unmarshal(p, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("decode %q: err = %v, encoding/json says %v", p, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q = %#v, encoding/json says %#v", p, got, want)
	}
}

// checkStatusEncode holds appendStatusReply to json.Marshal on r and
// returns the encoding.
func checkStatusEncode(t *testing.T, r StatusReply) []byte {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got := appendStatusReply(nil, &r)
	if !bytes.Equal(got, want) {
		t.Fatalf("encode %#v:\n got %s\nwant %s", r, got, want)
	}
	return got
}

// Every STATUS-OK payload a server writes is json.Marshal's, and decodes
// without encoding/json to the value json.Unmarshal gives; any other
// payload decodes as json.Unmarshal decodes it.
func TestStatusReplyCodecMatchesEncodingJSON(t *testing.T) {
	for _, r := range []StatusReply{
		{},
		{Contact: "https://gk:2119/17/1", State: job.Done},
		{Contact: "c", State: job.Failed, ExitCode: -1, Error: `exec: "nope" <not found> & more`,
			Stdout: "hi\n\t\x00\u2028ünï", Stderr: "bad\xffutf8", Restarts: 3},
		{Contact: "c", State: job.State(-5), ExitCode: 1 << 40, Restarts: -1},
	} {
		p := checkStatusEncode(t, r)
		checkStatusDecode(t, p)
		rd := canonjson.NewReader(p)
		if readStatusReply(&rd); !rd.Done() {
			t.Errorf("%s: decoded by encoding/json", p)
		}
	}
	for _, p := range []string{
		`{"contact":"c","state":1,"exitCode":0,"error":""}`,
		`{"contact":"c","state":1,"exitCode":0,"restarts":0}`,
		`{"contact":"c","exitCode":0,"state":1}`,
		`{"contact":"c","state":"DONE","exitCode":0}`,
		`{"contact":"c","state":1.0,"exitCode":0}`,
		`{"contact":"c","state":01,"exitCode":0}`,
		`{"contact":"c","state":9223372036854775808,"exitCode":0}`,
		`{"contact":null,"state":1,"exitCode":0}`,
		`{"contact":"\ud83d\ude00","state":1,"exitCode":0}`,
		`{"contact":"c\/d\u00E9","state":1,"exitCode":0,"stdout":"\n"}`,
		` {"contact":"c","state":1,"exitCode":0}`,
		`{"Contact":"c","state":1,"exitCode":0}`,
		`{"contact":"c","state":1,"exitCode":0,"extra":[1]}`,
		`{"contact":"c","state":1,"exitCode":0}x`,
		`null`,
		``,
	} {
		checkStatusDecode(t, []byte(p))
	}
}

// FuzzStatusReplyCodec holds the STATUS reply codec to encoding/json in
// both directions: the encoder writes json.Marshal's bytes for a reply
// built from the inputs, and the decoder accepts and rejects what
// json.Unmarshal does, with the same value, on that encoding and on
// payload.
func FuzzStatusReplyCodec(f *testing.F) {
	f.Add([]byte(`{"contact":"c","state":3,"exitCode":0}`), "https://gk/1", 3, 0, "", "hi\n", "", 0)
	f.Add([]byte(`{"contact":"c","state":4,"exitCode":1,"error":"x","restarts":2}`), "<&>", -1, 1<<31, "\xff", "\u2028", "\x00", 2)
	f.Add([]byte(`{"contact":"\u0063","state":-0,"exitCode":00}`), "", 0, 0, "", "", "", 0)
	f.Fuzz(func(t *testing.T, payload []byte, contact string, state, exit int, errText, stdout, stderr string, restarts int) {
		p := checkStatusEncode(t, StatusReply{Contact: contact, State: job.State(state), ExitCode: exit,
			Error: errText, Stdout: stdout, Stderr: stderr, Restarts: restarts})
		checkStatusDecode(t, p)
		checkStatusDecode(t, payload)
	})
}
