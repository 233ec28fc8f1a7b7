package cluster

import "testing"

// TestRouteKeyAllocations pins the proxy's per-SUBMIT classification of
// a hot info query to xrsl.Decode's single pass: no RSL tree, and the key
// is a substring of the source.
func TestRouteKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const src = `&(info=K03)(filter="*:g2x*")`
	if got := RouteKey(src); got != "K03" {
		t.Fatalf("RouteKey = %q, want K03", got)
	}
	allocs := testing.AllocsPerRun(200, func() { _ = RouteKey(src) })
	if allocs > 4 {
		t.Errorf("RouteKey allocates %.1f times per call, want at most 4", allocs)
	}
}
