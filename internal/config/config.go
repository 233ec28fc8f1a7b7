// Package config parses the InfoGram configuration file of paper §6.2.1
// and Table 1: a mapping from keywords to key information providers.
//
// The core format is the paper's three columns —
//
//	# TTL  Keyword  Command
//	60     Date     date -u
//	80     Memory   /sbin/sysinfo.exe -mem
//	100    CPU      /sbin/sysinfo.exe -cpu
//	0      CPULoad  /usr/local/bin/cpuload.exe
//	1000   list     /bin/ls /home/gregor
//
// where TTL is the lifetime in milliseconds of the data generated by the
// keyword (0 means execute every time), the keyword names the provider in
// xRSL queries, and the command is the machine-dependent executable with
// its arguments.
//
// Directive lines extend individual keywords without disturbing the
// paper's column format:
//
//	@degrade CPULoad linear(2s)     attach a degradation function
//	@delay   CPULoad 100ms          minimum interval between executions
//	@format  Memory  xml            preferred return format
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"infogram/internal/quality"
)

// Entry is one keyword row plus any directives that target it.
type Entry struct {
	TTL     time.Duration
	Keyword string
	Command string
	// Degrade is the parsed @degrade directive, nil when absent.
	Degrade quality.Degradation
	// DegradeSpec preserves the directive text for round-tripping.
	DegradeSpec string
	// Delay is the parsed @delay directive.
	Delay time.Duration
	// Format is the parsed @format directive ("ldif" default).
	Format string
}

// Config is a parsed configuration file, in file order.
type Config struct {
	Entries []Entry
}

// Lookup finds the entry for keyword (case-insensitive).
func (c *Config) Lookup(keyword string) (*Entry, bool) {
	for i := range c.Entries {
		if strings.EqualFold(c.Entries[i].Keyword, keyword) {
			return &c.Entries[i], true
		}
	}
	return nil, false
}

// Parse reads a configuration from r.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{}
	type directive struct {
		kind, keyword, arg string
		line               int
	}
	var directives []directive

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "@") {
			fields := strings.Fields(line)
			if len(fields) < 3 {
				return nil, fmt.Errorf("config: line %d: directive needs keyword and argument", lineNo)
			}
			directives = append(directives, directive{
				kind:    strings.TrimPrefix(fields[0], "@"),
				keyword: fields[1],
				arg:     strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, fields[0]), " "+fields[1])),
				line:    lineNo,
			})
			continue
		}
		entry, err := parseRow(line)
		if err != nil {
			return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
		}
		if _, dup := cfg.Lookup(entry.Keyword); dup {
			return nil, fmt.Errorf("config: line %d: duplicate keyword %q", lineNo, entry.Keyword)
		}
		cfg.Entries = append(cfg.Entries, entry)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: read: %w", err)
	}

	for _, d := range directives {
		e, ok := cfg.Lookup(d.keyword)
		if !ok {
			return nil, fmt.Errorf("config: line %d: directive for unknown keyword %q", d.line, d.keyword)
		}
		switch d.kind {
		case "degrade":
			fn, err := quality.ParseSpec(d.arg)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: %w", d.line, err)
			}
			e.Degrade = fn
			e.DegradeSpec = d.arg
		case "delay":
			dur, err := parseMillisOrDuration(d.arg)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: @delay: %w", d.line, err)
			}
			e.Delay = dur
		case "format":
			f := strings.ToLower(d.arg)
			if f != "ldif" && f != "xml" {
				return nil, fmt.Errorf("config: line %d: @format must be ldif or xml, got %q", d.line, d.arg)
			}
			e.Format = f
		default:
			return nil, fmt.Errorf("config: line %d: unknown directive @%s", d.line, d.kind)
		}
	}
	return cfg, nil
}

func parseRow(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Entry{}, fmt.Errorf("expected 'TTL Keyword Command...', got %q", line)
	}
	ttl, err := parseMillisOrDuration(fields[0])
	if err != nil {
		return Entry{}, fmt.Errorf("TTL column: %w", err)
	}
	if ttl < 0 {
		return Entry{}, fmt.Errorf("TTL must be non-negative, got %s", fields[0])
	}
	return Entry{
		TTL:     ttl,
		Keyword: fields[1],
		Command: strings.Join(fields[2:], " "),
	}, nil
}

// parseMillisOrDuration accepts a bare integer (milliseconds, the paper's
// unit) or Go duration syntax.
func parseMillisOrDuration(s string) (time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Duration(n) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return d, nil
}

// ParseString parses a configuration from a string.
func ParseString(s string) (*Config, error) { return Parse(strings.NewReader(s)) }

// Load reads a configuration file from path.
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: open: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Render writes the configuration back in file format, reproducing the
// Table 1 layout.
func (c *Config) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# TTL Keyword Command"); err != nil {
		return err
	}
	for _, e := range c.Entries {
		if _, err := fmt.Fprintf(w, "%d %s %s\n", e.TTL.Milliseconds(), e.Keyword, e.Command); err != nil {
			return err
		}
	}
	for _, e := range c.Entries {
		if e.DegradeSpec != "" {
			if _, err := fmt.Fprintf(w, "@degrade %s %s\n", e.Keyword, e.DegradeSpec); err != nil {
				return err
			}
		}
		if e.Delay > 0 {
			if _, err := fmt.Fprintf(w, "@delay %s %s\n", e.Keyword, e.Delay); err != nil {
				return err
			}
		}
		if e.Format != "" {
			if _, err := fmt.Fprintf(w, "@format %s %s\n", e.Keyword, e.Format); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table1 is the verbatim configuration of the paper's Table 1 ("The
// InfoGram configuration file provides a mapping between keywords and
// information providers").
const Table1 = `# TTL Keyword Command
60 Date date -u
80 Memory /sbin/sysinfo.exe -mem
100 CPU /sbin/sysinfo.exe -cpu
0 CPULoad /usr/local/bin/cpuload.exe
1000 list /bin/ls /home/gregor
`
