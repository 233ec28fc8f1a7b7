// One bound for every tier: the gatekeeper's response cache, the GRIS and
// the GIIS are three instantiations of bytecache.Managed, so the refresh
// candidate table is bounded the same way in each. Before the stack was
// shared the directory tiers' copy had no bound at all and cloned one
// request per distinct cached filter without limit.
package integration_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"infogram/internal/core"
	"infogram/internal/mds"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
)

func TestRefreshTrackerBoundedOnEveryTier(t *testing.T) {
	const (
		distinct = 5000
		bound    = 4096 // bytecache's maxTracked
		// 30 s entries refreshed at 95 %: nothing expires or refills during
		// the test, and the scanner runs every 375 ms.
		cacheTTL     = 30 * time.Second
		refreshAhead = 0.95
	)
	d := newDeployment(t)
	reg := provider.NewRegistry(nil)
	reg.Register(&provider.StaticProvider{
		KeywordName: "Payload",
		Values:      provider.Attributes{{Name: "abcdefghijklm", Value: "v"}},
	}, provider.RegisterOptions{TTL: time.Hour})
	// caseVariant spells the attribute name with the letters selected by
	// i's bits upper-cased: distinct filter texts that all match it, so
	// the gatekeeper (which never tracks empty answers) tracks each one.
	caseVariant := func(i int) string {
		name := []byte("abcdefghijklm")
		for bit := range name {
			if i>>bit&1 == 1 {
				name[bit] -= 'a' - 'A'
			}
		}
		return string(name)
	}

	tiers := []struct {
		name, series, tier string
		// start brings the tier up on tel and returns how to ask it the
		// i-th distinct question.
		start func(t *testing.T, tel *telemetry.Registry) func(i int) error
	}{
		{"core", "infogram_refresh_ahead_tracked", "", func(t *testing.T, tel *telemetry.Registry) func(int) error {
			svc := core.NewService(core.Config{
				ResourceName: "bound-site",
				Credential:   d.svcCred, Trust: d.trust, Gridmap: d.gridmap,
				Registry: reg, Backends: d.backends(), Telemetry: tel,
				CacheTTL: cacheTTL, RefreshAhead: refreshAhead,
			})
			addr, err := svc.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { svc.Close() })
			cl, err := core.Dial(addr, d.user, d.trust)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return func(i int) error {
				res, err := cl.QueryRaw(fmt.Sprintf(`&(info=Payload)(filter="Payload:%s")`, caseVariant(i)))
				if err == nil && len(res.Entries) != 1 {
					err = fmt.Errorf("%d entries; want 1", len(res.Entries))
				}
				return err
			}
		}},
		{"gris", "mds_refresh_ahead_tracked", "gris", func(t *testing.T, tel *telemetry.Registry) func(int) error {
			g := mds.NewGRIS(mds.GRISConfig{
				ResourceName: "bound-site", Registry: reg,
				Credential: d.svcCred, Trust: d.trust, Telemetry: tel,
				CacheTTL: cacheTTL, RefreshAhead: refreshAhead,
			})
			t.Cleanup(func() { g.Close() })
			return func(i int) error {
				_, err := g.SearchLDIF(context.Background(), mds.SearchRequest{Filter: fmt.Sprintf("(Payload:k%d=v)", i)})
				return err
			}
		}},
		{"giis", "mds_refresh_ahead_tracked", "giis", func(t *testing.T, tel *telemetry.Registry) func(int) error {
			g := mds.NewGIIS(mds.GIISConfig{
				OrgName: "bound-vo", Credential: d.svcCred, Trust: d.trust, Telemetry: tel,
				CacheTTL: cacheTTL, RefreshAhead: refreshAhead,
			})
			t.Cleanup(func() { g.Close() })
			return func(i int) error {
				_, err := g.SearchLDIF(context.Background(), mds.SearchRequest{Filter: fmt.Sprintf("(Payload:k%d=v)", i)})
				return err
			}
		}},
	}
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.NewRegistry()
			ask := tc.start(t, tel)
			for i := 0; i < distinct; i++ {
				if err := ask(i); err != nil {
					t.Fatalf("question %d: %v", i, err)
				}
			}
			tracked := func() int64 {
				for _, p := range tel.Snapshot() {
					if p.Name != tc.series {
						continue
					}
					if tc.tier == "" || (len(p.Labels) == 1 && p.Labels[0].Value == tc.tier) {
						return p.Value
					}
				}
				return -1
			}
			// The gauge is published by the scanner; wait for the scan that
			// sees the full population.
			deadline := time.Now().Add(10 * time.Second)
			for tracked() != bound {
				if got := tracked(); got > bound {
					t.Fatalf("%s = %d after %d distinct questions; bound is %d", tc.series, got, distinct, bound)
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s = %d; want it to saturate at %d", tc.series, tracked(), bound)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
