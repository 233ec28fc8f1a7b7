package config

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/provider"
	"infogram/internal/quality"
)

func TestTable1Reproduction(t *testing.T) {
	// E1: the verbatim configuration of the paper's Table 1 parses into
	// exactly the mappings the table shows.
	cfg, err := ParseString(Table1)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		ttl     time.Duration
		keyword string
		command string
	}{
		{60 * time.Millisecond, "Date", "date -u"},
		{80 * time.Millisecond, "Memory", "/sbin/sysinfo.exe -mem"},
		{100 * time.Millisecond, "CPU", "/sbin/sysinfo.exe -cpu"},
		{0, "CPULoad", "/usr/local/bin/cpuload.exe"},
		{1000 * time.Millisecond, "list", "/bin/ls /home/gregor"},
	}
	if len(cfg.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(cfg.Entries), len(want))
	}
	for i, w := range want {
		e := cfg.Entries[i]
		if e.TTL != w.ttl || e.Keyword != w.keyword || e.Command != w.command {
			t.Errorf("row %d = {%v %q %q}, want {%v %q %q}",
				i, e.TTL, e.Keyword, e.Command, w.ttl, w.keyword, w.command)
		}
	}
}

func TestTable1RoundTrip(t *testing.T) {
	cfg, err := ParseString(Table1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cfg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != Table1 {
		t.Errorf("Render does not reproduce Table 1:\n%q\nwant\n%q", sb.String(), Table1)
	}
}

func TestDirectives(t *testing.T) {
	src := `60 Date date -u
0 CPULoad /usr/local/bin/cpuload.exe
@degrade CPULoad linear(2s)
@delay CPULoad 100
@format Date xml
`
	cfg, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	load, ok := cfg.Lookup("cpuload")
	if !ok {
		t.Fatal("CPULoad not found (case-insensitive lookup)")
	}
	if load.Degrade == nil || load.Degrade.Name() != "linear(2s)" {
		t.Errorf("Degrade = %v", load.Degrade)
	}
	if load.Delay != 100*time.Millisecond {
		t.Errorf("Delay = %v", load.Delay)
	}
	date, _ := cfg.Lookup("Date")
	if date.Format != "xml" {
		t.Errorf("Format = %q", date.Format)
	}
	// Degradation behaves.
	if q := load.Degrade.Quality(time.Second); q != 50 {
		t.Errorf("Quality(1s) = %v", q)
	}
}

func TestDirectiveRoundTrip(t *testing.T) {
	src := `60 Date date -u
@degrade Date exponential(5s)
@delay Date 250ms
@format Date xml
`
	cfg, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cfg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	cfg2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	e, _ := cfg2.Lookup("Date")
	if e.Degrade == nil || e.Delay != 250*time.Millisecond || e.Format != "xml" {
		t.Errorf("round-tripped entry = %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"60 Date",                    // missing command
		"abc Date date",              // bad TTL
		"-5 Date date",               // negative TTL
		"60 Date date\n60 Date date", // duplicate keyword
		"@degrade Ghost linear(1s)",  // directive for unknown keyword
		"60 D d\n@degrade D nope(1)", // bad degradation spec
		"60 D d\n@delay D xyz",       // bad delay
		"60 D d\n@format D yaml",     // bad format
		"60 D d\n@mystery D arg",     // unknown directive
		"60 D d\n@degrade D",         // directive missing argument
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "# heading\n\n  \n60 Date date -u\n# trailing\n"
	cfg, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Entries) != 1 {
		t.Errorf("entries = %d", len(cfg.Entries))
	}
}

func TestDurationSyntaxInTTL(t *testing.T) {
	cfg, err := ParseString("1m30s Slow /bin/true\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Entries[0].TTL != 90*time.Second {
		t.Errorf("TTL = %v", cfg.Entries[0].TTL)
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "infogram.conf")
	if err := os.WriteFile(path, []byte(Table1), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Entries) != 5 {
		t.Errorf("entries = %d", len(cfg.Entries))
	}
	if _, err := Load(filepath.Join(dir, "missing.conf")); err == nil {
		t.Error("missing file load succeeded")
	}
}

// TestApply loads a configuration through a Manager, the one way a
// configuration reaches a registry.
func TestApply(t *testing.T) {
	// A runnable variant of Table 1 using real binaries.
	src := `60 Date date -u
1000 list /bin/ls /
@degrade Date linear(10s)
@delay list 50
`
	cfg, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	reg := provider.NewRegistry(nil)
	updated, removed, err := NewManager(reg).Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if updated != 2 || removed != 0 || reg.Len() != 2 {
		t.Fatalf("updated, removed = %d, %d; %d registered", updated, removed, reg.Len())
	}
	g, ok := reg.Lookup("Date")
	if !ok {
		t.Fatal("Date not registered")
	}
	if g.TTL() != 60*time.Millisecond {
		t.Errorf("TTL = %v", g.TTL())
	}
	if g.Degradation() == nil {
		t.Error("degradation not applied")
	}
	// The provider actually executes.
	rep, err := g.Get(context.Background(), cache.Cached, 0)
	if err != nil {
		t.Skipf("date not available: %v", err)
	}
	if len(rep.Attrs) == 0 {
		t.Error("Date produced no attributes")
	}
	_ = quality.Score(0) // anchor the import
}

func TestApplyBadCommand(t *testing.T) {
	cfg := &Config{Entries: []Entry{{Keyword: "X", Command: ""}}}
	if _, _, err := NewManager(provider.NewRegistry(nil)).Load(cfg); err == nil {
		t.Error("empty command applied")
	}
}
