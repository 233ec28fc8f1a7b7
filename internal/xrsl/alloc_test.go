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

// TestDecodeJobAllocations pins the single pass's cost for the job shapes
// clients send: the result slice, the Request, the JobRequest and its
// argument slice, with no RSL tree, no Spec and no Unparse: the Source is
// the source itself.
func TestDecodeJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, c := range []struct {
		name, src string
	}{
		{"suite", "&(executable=noop)(jobtype=func)(arguments=1y2p0ij32e8e7)"},
		{"date", "&(executable=/bin/date)(arguments=-u)"},
		{"sleep", "&(executable=/bin/sleep)(arguments=30)(timeout=200)(action=cancel)"},
	} {
		reqs, err := Decode(c.src, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if reqs[0].Source != c.src {
			t.Fatalf("%s: Source = %q, want the source itself", c.name, reqs[0].Source)
		}
		allocs := testing.AllocsPerRun(200, func() { _, _ = Decode(c.src, nil) })
		if allocs > 5 {
			t.Errorf("%s: Decode allocates %.1f times per call, want at most 5", c.name, allocs)
		}
		t.Logf("%s: %.1f allocations", c.name, allocs)
	}
}
