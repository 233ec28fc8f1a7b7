package ldif

import (
	"reflect"
	"strings"
	"testing"
)

// checkSplit asserts Split's contract against Unmarshal on one body: both
// fail with the same error or neither does, every block decodes alone to
// exactly one entry carrying the block's DN, and the blocks' entries in
// order are Unmarshal's entries.
func checkSplit(t *testing.T, body []byte) []Block {
	t.Helper()
	want, werr := Unmarshal(string(body))
	blocks, err := Split(body, nil)
	if (err != nil) != (werr != nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("Split(%q) error %v, Unmarshal error %v", body, err, werr)
	}
	var got []Entry
	prev := 0
	for i, b := range blocks {
		if b.Start < prev || b.End <= b.Start || b.End > len(body) {
			t.Fatalf("Split(%q) block %d = [%d,%d) after %d", body, i, b.Start, b.End, prev)
		}
		prev = b.End
		es, err := Unmarshal(string(body[b.Start:b.End]))
		if err != nil || len(es) != 1 || es[0].DN != b.DN {
			t.Fatalf("block %d %q of %q decodes to %+v, %v; want one entry with DN %q", i, body[b.Start:b.End], body, es, err, b.DN)
		}
		got = append(got, es[0])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Split(%q) entries\n%+v\nUnmarshal\n%+v", body, got, want)
	}
	return blocks
}

var splitCases = []struct {
	name, body string
	dns        []string // nil when the body must be rejected
}{
	{"empty", "", []string{}},
	{"blank lines only", "\n\r\n\n", []string{}},
	{"plain", "dn: a\nx: 1\n\ndn: b\ny: 2\n", []string{"a", "b"}},
	{"no final newline", "dn: a\nx: 1", []string{"a"}},
	{"crlf", "dn: a\r\nx: 1\r\n\r\ndn: b\r\n", []string{"a", "b"}},
	{"dn without blank line", "dn: a\nx: 1\ndn: b\ny: 2\n", []string{"a", "b"}},
	{"comments", "# head\ndn: a\n# inside\nx: 1\n# tail\n\n# between\ndn: b\n", []string{"a", "b"}},
	{"folded comment", "dn: a\n# c\n continued\nx: 1\n", []string{"a"}},
	{"folded dn", "dn: kw=Memory, reso\n urce=hot, o=grid\nx: 1\n", []string{"kw=Memory, resource=hot, o=grid"}},
	{"base64 dn", "dn:: a3c9Yiwgbz1ncmlk\nx: 1\n", []string{"kw=b, o=grid"}},
	{"folded base64 dn", "dn:: a3c9Yiwg\n bz1ncmlk\n", []string{"kw=b, o=grid"}},
	{"case-folded dn", "DN: a\nDn: b\n", []string{"a", "b"}},
	{"empty dn", "dn:\nx: 1\n", []string{""}},
	{"base64 value", "dn: a\nblob:: AGI=\n", []string{"a"}},
	{"namespaced name", "dn: a\nMemory:total: 1024\n", []string{"a"}},
	{"folded value", "dn: a\nx: 12\n 34\n", []string{"a"}},
	{"space-only continuation", "dn: a\n \nx: 1\n", []string{"a"}},
	{"trailing blank lines", "dn: a\n\n\n\n", []string{"a"}},
	{"lone CR at end is blank", "dn: a\nx: 1\n\r", []string{"a"}},
	{"CR-led line is an attribute", "dn: a\n\rdn: b\n", []string{"a"}},
	{"malformed line", "dn: a\nnocolon\n", nil},
	{"leading colon", "dn: a\n: v\n", nil},
	{"attribute before dn", "x: 1\ndn: a\n", nil},
	{"attribute after blank line", "dn: a\n\nx: 1\n", nil},
	{"continuation first", " x\ndn: a\n", nil},
	{"continuation after blank", "dn: a\n\n more\n", nil},
	{"bad base64 value", "dn: a\nx:: !!!\n", nil},
	{"bad base64 dn", "dn:: a3c\n", nil},
	{"inner CR", "dn: a\n\r\r\n", nil},
}

func TestSplit(t *testing.T) {
	for _, c := range splitCases {
		t.Run(c.name, func(t *testing.T) {
			blocks := checkSplit(t, []byte(c.body))
			if c.dns == nil {
				if _, err := Split([]byte(c.body), nil); err == nil {
					t.Fatalf("Split(%q) accepted", c.body)
				}
				return
			}
			dns := []string{}
			for _, b := range blocks {
				dns = append(dns, b.DN)
			}
			if !reflect.DeepEqual(dns, c.dns) {
				t.Fatalf("Split(%q) DNs = %q, want %q", c.body, dns, c.dns)
			}
		})
	}
}

// TestSplitLineLimit: a physical line of maxLine bytes or more (newline
// not counted) fails Decode's scanner, and Split rejects the same lines.
func TestSplitLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine} {
		long := "dn: a\nx: " + strings.Repeat("v", n-len("x: "))
		for _, tail := range []string{"", "\n", "\r\n"} {
			body := []byte(long + tail)
			checkSplit(t, body)
			line := n + len(strings.TrimSuffix(tail, "\n"))
			if _, err := Split(body, nil); (err != nil) != (line >= maxLine) {
				t.Errorf("Split of a %d-byte line: %v", line, err)
			}
		}
	}
}

// TestSplitAllocs pins Split on a plain, unfolded body at zero
// allocations when dst has room: the DNs are views into the body, and
// nothing is built per line. A Split that decoded the entries would
// allocate per attribute.
func TestSplitAllocs(t *testing.T) {
	var entries []Entry
	for _, kw := range []string{"Memory", "CPU", "Disk", "Load"} {
		e := Entry{DN: "kw=" + kw + ", resource=hot.anl.gov, o=grid"}
		e.Add("objectclass", "InfoGramProvider")
		e.Add(kw+":total", "1024")
		e.Add(kw+":free", "512")
		entries = append(entries, e)
	}
	s, err := Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(s)
	dst := make([]Block, 0, len(entries))
	allocs := testing.AllocsPerRun(100, func() {
		if blocks, err := Split(body, dst); err != nil || len(blocks) != len(entries) {
			t.Fatalf("Split = %d blocks, %v", len(blocks), err)
		}
	})
	if allocs != 0 {
		t.Errorf("Split on a plain 4-entry body: %.1f allocs, want 0", allocs)
	}
}

// maxFuzzBody keeps fuzz inputs far below Decode's maxLine, whose
// boundary TestSplitLineLimit covers.
const maxFuzzBody = 64 << 10

// FuzzLDIFSplit checks Split against Unmarshal as the oracle: the same
// error for the same input, and blocks that decode, one entry each, to
// Unmarshal's entries.
func FuzzLDIFSplit(f *testing.F) {
	for _, c := range splitCases {
		f.Add([]byte(c.body))
	}
	if s, err := Marshal(sampleEntries()); err == nil {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzBody {
			return
		}
		checkSplit(t, body)
	})
}
