package mds

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"infogram/internal/ldif"
)

// refMerge is the GIIS merge the splice replaced, kept verbatim as the
// oracle: each member body decoded (a body that fails to decode is that
// member's failure), the entries sorted by DN, the degraded status entry
// appended, and the whole merge rendered again.
func refMerge(org string, members []string, bodies [][]byte) (string, error) {
	var merged []ldif.Entry
	var failed []memberResult
	for i, body := range bodies {
		entries, err := ldif.Unmarshal(string(body))
		if err != nil {
			failed = append(failed, memberResult{addr: members[i], err: err})
			continue
		}
		merged = append(merged, entries...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].DN < merged[j].DN })
	if len(failed) > 0 {
		merged = append(merged, degradedSearchEntry(org, failed))
	}
	return ldif.Marshal(merged)
}

// spliceBodies runs the GIIS's own path over member bodies: split each
// reply as scatter does, then splice.
func spliceBodies(org string, members []string, bodies [][]byte, results []memberResult) ([]byte, error) {
	for i, body := range bodies {
		results[i] = splitReply(members[i], body, nil)
	}
	return splice(org, results)
}

// byDNThenContent orders entries by DN, breaking ties by their rendering,
// so two merges that differ only in the order of equal DNs compare equal.
func byDNThenContent(es []ldif.Entry) {
	slices.SortStableFunc(es, func(a, b ldif.Entry) int {
		if c := strings.Compare(a.DN, b.DN); c != 0 {
			return c
		}
		return strings.Compare(fmt.Sprint(a.Attrs), fmt.Sprint(b.Attrs))
	})
}

// checkSplice asserts that the spliced merge decodes to the oracle's
// merge: the same status entry last when a member failed, member entries
// sorted by DN, and the same entries, up to the order of equal DNs (the
// oracle's sort is unstable; the splice keeps member order).
func checkSplice(t *testing.T, bodies [][]byte) {
	t.Helper()
	members := make([]string, len(bodies))
	for i := range members {
		members[i] = fmt.Sprintf("gris%d:2135", i)
	}
	want, err := refMerge("vo", members, bodies)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	out, err := spliceBodies("vo", members, bodies, make([]memberResult, len(bodies)))
	if err != nil {
		t.Fatalf("splice: %v", err)
	}
	got, err := ldif.Unmarshal(string(out))
	if err != nil {
		t.Fatalf("spliced merge %q does not decode: %v", out, err)
	}
	ref, _ := ldif.Unmarshal(want)
	if len(got) != len(ref) {
		t.Fatalf("spliced merge has %d entries, oracle %d\nspliced %q\noracle  %q", len(got), len(ref), out, want)
	}
	degraded := false
	for _, body := range bodies {
		if _, err := ldif.Unmarshal(string(body)); err != nil {
			degraded = true
		}
	}
	if n := len(ref); degraded {
		if !reflect.DeepEqual(got[n-1], ref[n-1]) {
			t.Fatalf("status entry %+v, oracle %+v", got[n-1], ref[n-1])
		}
		got, ref = got[:n-1], ref[:n-1]
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].DN > got[i].DN {
			t.Fatalf("spliced merge not sorted by DN: %q before %q", got[i-1].DN, got[i].DN)
		}
	}
	byDNThenContent(got)
	byDNThenContent(ref)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("spliced entries\n%+v\noracle\n%+v", got, ref)
	}
}

// maxFuzzMemberBody keeps each member body far below Decode's 1 MiB line
// limit.
const maxFuzzMemberBody = 16 << 10

// FuzzGIISSplice checks the byte-level merge against the decode → sort →
// Marshal oracle for any four member bodies, well-formed or not.
func FuzzGIISSplice(f *testing.F) {
	b64 := "dn:: " + base64.StdEncoding.EncodeToString([]byte("kw=b, o=grid")) + "\nv: 1\n"
	seeds := [][4]string{
		{"dn: kw=Memory, resource=r0, o=grid\nMemory:total: 1024\n", "dn: kw=Memory, resource=r1, o=grid\nMemory:total: 2048\n", "", "dn: kw=CPU, resource=r3, o=grid\n"},
		{b64, "dn: kw=c,\n  o=grid\nv: 2\n", "# comment\ndn: kw=a, o=grid\nv: 3", "dn: kw=a, o=grid\r\nv: 4\r\n"},
		{"dn: x\nv: 1\n\ndn: x\nv: 2\n", "dn: x\nv: 3\n", "dn: x\nnocolon\n", "v: before dn\n"},
		{"dn: a\nblob:: AGI=\n# trailing\n", "dn: a\nx: 1\ndn: b\n", "\n\n", "dn: z\n\n\n"},
	}
	for _, s := range seeds {
		f.Add([]byte(s[0]), []byte(s[1]), []byte(s[2]), []byte(s[3]))
	}
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		bodies := [][]byte{a, b, c, d}
		for _, body := range bodies {
			if len(body) > maxFuzzMemberBody {
				return
			}
		}
		checkSplice(t, bodies)
	})
}

// memberBodies renders four GRIS-shaped replies of two entries each, with
// attrs attributes per entry.
func memberBodies(t *testing.T, attrs int) [][]byte {
	t.Helper()
	var bodies [][]byte
	for m := 0; m < 4; m++ {
		var entries []ldif.Entry
		for _, kw := range []string{"Memory", "CPU"} {
			e := ldif.Entry{DN: fmt.Sprintf("kw=%s, resource=gris%d, o=grid", kw, m)}
			e.Add("objectclass", "InfoGramProvider")
			for i := 0; i < attrs; i++ {
				e.Add(fmt.Sprintf("%s:a%d", kw, i), fmt.Sprint(m*1000+i))
			}
			entries = append(entries, e)
		}
		s, err := ldif.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// TestSpliceAllocs pins the merge of four member bodies — the split of
// each reply plus the splice — at a fixed allocation count: each member's
// block slice grows to its two entries, plus the sort's piece slice and
// the output buffer. A merge that decoded the member entries would
// allocate per attribute and fail the equality.
func TestSpliceAllocs(t *testing.T) {
	members := []string{"gris0:2135", "gris1:2135", "gris2:2135", "gris3:2135"}
	results := make([]memberResult, len(members))
	allocs := func(attrs int) float64 {
		bodies := memberBodies(t, attrs)
		checkSplice(t, bodies)
		return testing.AllocsPerRun(100, func() {
			if _, err := spliceBodies("vo", members, bodies, results); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(2), allocs(40)
	if few != many || many > 2*float64(len(members))+2 {
		t.Errorf("merge of four members: %.1f allocs at 2 attributes per entry, %.1f at 40; want the same count, at most %d",
			few, many, 2*len(members)+2)
	}
}
