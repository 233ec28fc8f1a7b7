package mds

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzSearchRequestCodec holds the SEARCH codec to encoding/json: the
// encoder writes json.Marshal's bytes for any request, and the decoder
// accepts and rejects what json.Unmarshal does, with the same value, on
// any payload. attrs is split on NUL into the request's attribute list.
func FuzzSearchRequestCodec(f *testing.F) {
	for _, s := range []struct{ payload, filter, attrs string }{
		{`{"filter":"(kw=Memory)"}`, "(kw=Memory)", ""},
		{`{"filter":"(\u0026(kw=CPU)(CPU:count\u003e=4))","attrs":["CPU:count","kw"]}`, "(&(kw=CPU)(CPU:count>=4))", "CPU:count\x00kw"},
		{`{}`, "", ""},
		{`{"attrs":["a"]}`, "", "a"},
		{`{"attrs":[]}`, "(a=\"q\\\\\")", "\x00"},
		{`{"filter":""}`, "ünïcode\u2028", "\x7f"},
		{`{ "filter" : "x" }`, "tab\there", ""},
		{`{"Filter":"x"}`, "<>&", ""},
		{`{"filter":"x","filter":"y"}`, "", ""},
		{`{"attrs":["a"],"filter":"x"}`, "", ""},
		{`{"filter":"x","extra":1}`, "", ""},
		{`{"filter":null}`, "", ""},
		{`null`, "", ""},
		{`{"filter":"\u003C\ud800"}`, "\xff", ""},
		{`{"filter":"a"}x`, "", ""},
		{`{"filter":"a\"}`, "", ""},
		{`{"attrs":["a",]}`, "", ""},
		{`{"filter":"a",}`, "", ""},
	} {
		f.Add([]byte(s.payload), s.filter, s.attrs)
	}
	f.Fuzz(func(t *testing.T, payload []byte, filter, attrs string) {
		req := SearchRequest{Filter: filter}
		if attrs != "" {
			req.Attrs = strings.Split(attrs, "\x00")
		}
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		got := appendSearchRequest(nil, &req)
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %+v:\n got %s\nwant %s", req, got, want)
		}
		checkDecode(t, got)
		checkDecode(t, payload)
	})
}

// checkDecode compares decodeSearchRequest with json.Unmarshal on p.
func checkDecode(t *testing.T, p []byte) {
	t.Helper()
	var want SearchRequest
	got, gerr := decodeSearchRequest(p)
	werr := json.Unmarshal(p, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("decode %q: err = %v, encoding/json says %v", p, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q = %#v, encoding/json says %#v", p, got, want)
	}
}

// A canonical payload decodes without encoding/json: a filter without
// escapes aliases the payload, one with escapes costs its one copy.
func TestSearchRequestDecodeAllocations(t *testing.T) {
	for _, c := range []struct {
		payload string
		allocs  float64
	}{
		{`{"filter":"(kw=Memory)"}`, 0},
		{`{"filter":"(\u0026(kw=Memory)(resource=gris*))"}`, 1},
	} {
		p := []byte(c.payload)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := decodeSearchRequest(p); err != nil {
				t.Fatal(err)
			}
		}); got != c.allocs {
			t.Errorf("decode %s: %v allocations, want %v", c.payload, got, c.allocs)
		}
	}
}
