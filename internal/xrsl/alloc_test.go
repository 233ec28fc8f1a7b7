package xrsl

import (
	"testing"
)

// TestDecodeInfoAllocations pins the single pass's cost for the request
// shapes clients send: the result slice, the Request, the InfoRequest and
// its keyword slice, with no RSL tree and no copies of the source.
func TestDecodeInfoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, c := range []struct {
		name, src string
	}{
		{"hot", `&(info=K03)(filter="*:g2x*")`},
		{"cold", `&(info=K00)(info=K01)(info=K02)(info=K03)(info=K04)(info=K05)(info=K06)(info=K07)(filter="*:g1x*")`},
	} {
		if _, err := Decode(c.src, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(200, func() { _, _ = Decode(c.src, nil) })
		if allocs > 4 {
			t.Errorf("%s: Decode allocates %.1f times per call, want at most 4", c.name, allocs)
		}
	}
}
