package wire_test

import (
	"bufio"
	"bytes"
	"testing"

	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/mds"
	"infogram/internal/wire"
)

// Every verb the protocols define is read into a shared string, so its
// frame's payload is the frame's only allocation; an unknown verb costs
// one more.
func TestReadFrameInternsProtocolVerbs(t *testing.T) {
	known := []string{
		"AUTH", "AUTH-OK", "AUTH-FIN", "AUTH-ERR", // gsi's handshake, unexported there
		wire.VerbHello, wire.VerbHelloOK, wire.VerbReject, wire.VerbReplLive, wire.VerbReplRec,
		gram.VerbSubmit, gram.VerbSubmitted, gram.VerbStatus, gram.VerbStatusOK,
		gram.VerbCancel, gram.VerbCancelOK, gram.VerbSignal, gram.VerbSignalOK,
		gram.VerbError, gram.VerbCallback, gram.VerbPing, gram.VerbPong,
		mds.VerbSearch, mds.VerbResult, mds.VerbRegister, mds.VerbRegOK, mds.VerbMDSError,
		core.VerbResultLDIF, core.VerbResultXML, core.VerbResultDSML, core.VerbMulti,
	}
	read := func(verb string) float64 {
		var buf bytes.Buffer
		r := bufio.NewReader(&buf)
		frame := verb + " 2\n{}"
		return testing.AllocsPerRun(20, func() {
			buf.WriteString(frame)
			if f, err := wire.ReadFrame(r); err != nil || f.Verb != verb {
				t.Fatalf("ReadFrame = %v, %v", f, err)
			}
		})
	}
	for _, verb := range known {
		if got := read(verb); got != 1 {
			t.Errorf("reading a %s frame: %v allocations, want 1", verb, got)
		}
	}
	if got := read("NOT-A-VERB"); got != 2 {
		t.Errorf("reading an unknown verb's frame: %v allocations, want 2", got)
	}
}
