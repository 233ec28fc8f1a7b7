package canonjson

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// Every byte, and every pair of bytes, is quoted as json.Marshal quotes
// it, and reads back as json.Unmarshal reads the quoted string.
func TestStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		want, _ := json.Marshal(s) // a string always marshals
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json says %s", s, got, want)
		}
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if v, rest, ok := CutString(got); !ok || v != back || len(rest) != 0 {
			t.Fatalf("CutString(%s) = %q, %q, %v; encoding/json says %q", got, v, rest, ok, back)
		}
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
	for _, s := range []string{"", "\u2028\u2029", "\U0001F600", "\u00e9<\u00e9>&", "\xed\xa0\x80"} {
		check(s)
	}
}

// CutString reads every escape as json.Unmarshal reads it, and leaves a
// surrogate escape and malformed input to it.
func TestCutStringEscapes(t *testing.T) {
	for p, read := range map[string]bool{
		`"\/\b\f\n\r\t\"\\"`: true, `"\u00e9\u00E9\u2028"`: true, `"\u0000"`: true,
		`"\ud83d\ude00"`: false, `"\ud800"`: false, `"\u12"`: false, `"\x"`: false,
		"\"\x01\"": false, `"abc`: false, "\"\xff\"": false,
	} {
		var want string
		werr := json.Unmarshal([]byte(p), &want)
		got, rest, ok := CutString([]byte(p))
		if ok != read || ok && (werr != nil || got != want || len(rest) != 0) {
			t.Errorf("CutString(%s) = %q, %v; encoding/json says %q, %v", p, got, ok, want, werr)
		}
	}
}

// AppendTime writes time.Time.MarshalJSON's bytes, and fails where it
// fails.
func TestAppendTimeMatchesEncodingJSON(t *testing.T) {
	for _, tm := range []time.Time{
		{},
		time.Date(2002, 7, 24, 12, 0, 0, 0, time.UTC),
		time.Date(2002, 7, 24, 12, 0, 0, 120000000, time.FixedZone("", -(5*3600+1800))),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 23*3600+59*60)),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2002, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2002, 1, 1, 0, 0, 0, 0, time.FixedZone("", 100*3600)),
	} {
		want, werr := tm.MarshalJSON()
		got, gerr := AppendTime([]byte("x"), tm)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("AppendTime(%v): err = %v, MarshalJSON says %v", tm, gerr, werr)
		}
		if gerr != nil {
			want = nil
		}
		if !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendTime(%v) = %s, MarshalJSON says %s", tm, got, want)
		}
	}
}
