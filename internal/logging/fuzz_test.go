package logging

import (
	"bytes"
	"testing"
)

// FuzzReplay throws arbitrary bytes at the log reader: torn writes,
// CRC-less corrupt JSON lines, binary garbage, oversized lines. Replay
// must never panic; when it accepts an input, the parsed records must
// survive an append/replay round trip, and Accounting over them must stay
// consistent with the submit records it saw.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"kind\":\"submit\",\"contact\":\"c1\",\"spec\":\"&(executable=a)\"}\n"))
	f.Add([]byte("{\"kind\":\"submit\",\"contact\":\"c1\"}\n{\"kind\":\"state\",\"contact\":\"c1\",\"state\":\"DONE\"}\n"))
	f.Add([]byte("{\"kind\":\"submit\",\"contact\":\"c1\"}\n{\"kind\":\"state\",\"con")) // torn tail
	f.Add([]byte("not-json\n"))
	f.Add([]byte("{\"kind\":\"submit\"}\nnot-json\n{\"kind\":\"state\"}\n")) // mid-file corruption
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{\"kind\":\"checkpoint\",\"contact\":\"c1\",\"checkpoint\":\"step=1\"}\n"))
	f.Add([]byte{0x00, 0xFF, 0x7B, 0x7D, 0x0A})
	legacy, _ := readLegacySpanLog(f) // span records of an older server
	f.Add(legacy)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			// JSON re-encoding can expand a near-limit line past the
			// scanner's cap; size-bound the round-trip property instead of
			// re-deriving the escape blow-up.
			return
		}
		recs, err := Replay(bytes.NewReader(data))
		if err != nil {
			return // rejected input: corruption detected, nothing to check
		}

		// Round trip: everything Replay accepted must re-encode and
		// replay to the same record count.
		var buf bytes.Buffer
		l := NewLogger(&buf)
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatalf("re-append of replayed record %+v: %v", r, err)
			}
		}
		back, err := Replay(&buf)
		if err != nil {
			t.Fatalf("replay of re-appended log: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(back))
		}

		// Accounting must not panic and attributes every submit record
		// to exactly one identity.
		submits := 0
		for _, r := range recs {
			if r.Kind == KindSubmit {
				submits++
			}
		}
		counted := 0
		for _, sum := range Accounting(recs) {
			counted += sum.JobsSubmit
		}
		if counted != submits {
			t.Fatalf("Accounting counted %d submissions from %d submit records", counted, submits)
		}
	})
}
