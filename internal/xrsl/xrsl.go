// Package xrsl implements the extended Resource Specification Language of
// paper §6.5. InfoGram keeps the Globus RSL syntax so existing Toolkit
// users need not learn URIs or XML query; it adds the tags
//
//	schema, info, filter, response, performance, quality, format
//
// for information queries, and extends job submission with
//
//	timeout, action
//
// (the paper's planned extension, §6.5 "Extensions") plus restart counts
// for the fault-tolerance feature of §6.1.
//
// A decoded request is either a job submission (it has an executable) or
// an information query (it has info tags); the two are never mixed in one
// sub-request — a multi-request (+) carries several of either kind in one
// round trip, which is exactly how InfoGram treats "job submissions and
// information queries alike".
package xrsl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"infogram/internal/cache"
	"infogram/internal/quality"
	"infogram/internal/rsl"
)

// Format selects the information return encoding (paper: "The supported
// formats are LDIF and XML").
type Format string

// Supported return formats. LDIF and XML are the paper's; DSML is the
// extension it names as straightforward (§6.5).
const (
	FormatLDIF Format = "ldif"
	FormatXML  Format = "xml"
	FormatDSML Format = "dsml"
)

// ParseFormat validates a format tag value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "ldif":
		return FormatLDIF, nil
	case "xml":
		return FormatXML, nil
	case "dsml":
		return FormatDSML, nil
	}
	return "", fmt.Errorf("xrsl: unsupported format %q (want ldif, xml, or dsml)", s)
}

// TimeoutAction is what happens when a job exceeds its timeout tag.
type TimeoutAction string

// Timeout actions (paper §6.5 Extensions).
const (
	// ActionNone means no timeout handling.
	ActionNone TimeoutAction = ""
	// ActionCancel cancels the command when the timeout is reached.
	ActionCancel TimeoutAction = "cancel"
	// ActionException reports a timeout error to the client while the
	// command itself continues executing.
	ActionException TimeoutAction = "exception"
)

// InfoRequest is a decoded information query.
type InfoRequest struct {
	// Keywords lists the requested key information providers in request
	// order. Empty with All set means every provider ((info=all)).
	Keywords []string
	// All is true for (info=all).
	All bool
	// Schema is true for (info=schema): return the reflection schema
	// instead of values (§6.4).
	Schema bool
	// Response is the caching behaviour (§6.5 response tag).
	Response cache.Mode
	// Quality is the threshold in percent below which cached attributes
	// must be regenerated; 0 disables the check (§6.5 quality tag).
	Quality quality.Score
	// Performance requests retrieval-time statistics (mean seconds and
	// standard deviation) alongside the values (§6.5 performance tag).
	Performance bool
	// Format selects LDIF or XML output.
	Format Format
	// Filter optionally restricts returned attributes by glob pattern on
	// their namespaced names, e.g. "Memory:*" (§6.5 filter tag).
	Filter string
}

// JobRequest is a decoded job submission with the GRAM core attributes the
// paper's J-GRAM supports plus the xRSL extensions.
type JobRequest struct {
	Executable  string
	Arguments   []string
	Directory   string
	Environment map[string]string
	Stdin       string
	Count       int
	// JobType selects the backend execution mode: "exec" runs the
	// executable as a process (GRAM's fork); "func" runs a registered
	// in-process function — the analog of J-GRAM executing a submitted
	// jar inside the JVM (§7); "queue" submits to the configured batch
	// backend.
	JobType string
	Queue   string
	// MaxWallTime bounds total job runtime (GRAM maxtime, minutes in RSL;
	// accepted here with duration syntax too).
	MaxWallTime time.Duration
	// Timeout and Action implement the paper's planned
	// (timeout=1000)(action=cancel|exception) extension.
	Timeout time.Duration
	Action  TimeoutAction
	// Restart is the fault-tolerance retry budget (§6.1 "allows to
	// restart a job upon failure").
	Restart int
	// CallbackContact, when set, asks the service to push status events
	// to this address (GRAM event notification).
	CallbackContact string
	// Checkpoint carries the most recent checkpoint blob when a job is
	// resubmitted by restart recovery; it is service-internal and has no
	// xRSL tag.
	Checkpoint string `json:"-"`
}

// Kind discriminates decoded requests.
type Kind int

// Request kinds.
const (
	KindInfo Kind = iota
	KindJob
)

// Request is one decoded xRSL sub-request.
type Request struct {
	Kind Kind
	Info *InfoRequest
	Job  *JobRequest
	// Source is a job's specification in canonical RSL, kept in its job
	// record for accounting and restart recovery. Info requests leave it
	// empty: nothing reads it for them. When the source is already
	// canonical, Source is the source itself, and on a server that is the
	// request frame's payload: wire.ReadFrame allocates each payload at
	// exactly the frame's length and never reuses it, so a job record
	// holding that alias pins no more than a copy of the source would.
	Source string
}

// Decode parses and classifies a full xRSL string, expanding
// multi-requests into their components. The canonical info and job shapes
// are decoded in a single pass over src (decodeSinglePass); any other input
// is parsed into an RSL tree (decodeParsed). Both paths return the same
// requests and the same errors; on the single pass the values are
// substrings of src, and a job's Source is src itself.
func Decode(src string, env rsl.Env) ([]*Request, error) {
	if reqs, ok, err := decodeSinglePass(src); ok {
		return reqs, err
	}
	return decodeParsed(src, env)
}

// decodeParsed is Decode by way of the RSL parser: parse, split
// multi-requests, evaluate each part under env and classify it.
func decodeParsed(src string, env rsl.Env) ([]*Request, error) {
	node, err := rsl.Parse(src)
	if err != nil {
		return nil, err
	}
	parts := rsl.SplitMulti(node)
	out := make([]*Request, 0, len(parts))
	for _, p := range parts {
		spec, err := rsl.NewSpec(p, env)
		if err != nil {
			return nil, err
		}
		req, err := DecodeSpec(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

// DecodeOne parses a single-request xRSL string, rejecting multi-requests.
func DecodeOne(src string, env rsl.Env) (*Request, error) {
	reqs, err := Decode(src, env)
	if err != nil {
		return nil, err
	}
	if len(reqs) != 1 {
		return nil, fmt.Errorf("xrsl: expected a single request, got %d", len(reqs))
	}
	return reqs[0], nil
}

// DecodeSpec classifies one evaluated specification.
func DecodeSpec(spec *rsl.Spec) (*Request, error) {
	req, err := decodeRequest(&relations{spec: spec})
	if err == nil && req.Kind == KindJob {
		req.Source = spec.Unparse()
	}
	return req, err
}

// decodeRequest classifies one request's relations, read through r, and
// validates them as a job submission or an information query. The caller
// sets a job's Source.
func decodeRequest(r *relations) (*Request, error) {
	hasExec := r.present(tagExecutable)
	infos, err := r.all(tagInfo)
	if err != nil {
		return nil, err
	}
	hasInfo := len(infos) > 0
	switch {
	case hasExec && hasInfo:
		return nil, fmt.Errorf("xrsl: a request cannot carry both executable and info tags; use a multi-request (+)")
	case hasExec:
		job, err := decodeJob(r)
		if err != nil {
			return nil, err
		}
		return &Request{Kind: KindJob, Job: job}, nil
	case hasInfo:
		info, err := decodeInfo(r, infos)
		if err != nil {
			return nil, err
		}
		return &Request{Kind: KindInfo, Info: info}, nil
	default:
		return nil, fmt.Errorf("xrsl: request has neither executable nor info tags")
	}
}

// decodeInfo validates an info request's tags, read through r. It owns
// infos: the keywords are filtered into it in place.
func decodeInfo(r *relations, infos []string) (*InfoRequest, error) {
	req := &InfoRequest{Format: FormatLDIF}
	keywords := infos[:0]
	for _, kw := range infos {
		switch {
		case lowerEquals(kw, "all"):
			req.All = true
		case lowerEquals(kw, "schema"):
			req.Schema = true
		default:
			keywords = append(keywords, kw)
		}
	}
	// (info=all) subsumes explicit keywords.
	if !req.All && len(keywords) > 0 {
		req.Keywords = keywords
	}

	respStr, _, err := r.first(tagResponse)
	if err != nil {
		return nil, err
	}
	mode, err := cache.ParseMode(strings.ToLower(respStr))
	if err != nil {
		return nil, fmt.Errorf("xrsl: %w", err)
	}
	req.Response = mode

	if q, ok, err := r.first(tagQuality); err != nil {
		return nil, err
	} else if ok {
		f, err := strconv.ParseFloat(strings.TrimSuffix(q, "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("xrsl: quality tag %q is not a percentage: %w", q, err)
		}
		if f < 0 || f > 100 {
			return nil, fmt.Errorf("xrsl: quality threshold %v out of range [0,100]", f)
		}
		req.Quality = quality.Score(f)
	}

	if p, ok, err := r.first(tagPerformance); err != nil {
		return nil, err
	} else if ok {
		b, err := parseBool(p)
		if err != nil {
			return nil, fmt.Errorf("xrsl: performance tag: %w", err)
		}
		req.Performance = b
	}

	fstr, _, err := r.first(tagFormat)
	if err != nil {
		return nil, err
	}
	format, err := ParseFormat(fstr)
	if err != nil {
		return nil, err
	}
	req.Format = format

	req.Filter, _, err = r.first(tagFilter)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// lowerEquals reports whether strings.ToLower(s) == lower, without
// allocating, for a lower-case ASCII target holding neither 'i' nor 'k'.
// The only runes outside ASCII that lower into it are U+0130 (to 'i') and
// U+212A (to 'k'), so for such a target a match is ASCII byte for byte.
func lowerEquals(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// decodeJob validates a job submission's tags, read through r.
func decodeJob(r *relations) (*JobRequest, error) {
	job := &JobRequest{}
	var err error
	if job.Executable, err = r.str(tagExecutable, ""); err != nil {
		return nil, err
	}
	if job.Arguments, err = r.all(tagArguments); err != nil {
		return nil, err
	}
	if job.Directory, err = r.str(tagDirectory, ""); err != nil {
		return nil, err
	}
	if job.Stdin, err = r.str(tagStdin, ""); err != nil {
		return nil, err
	}
	if job.Count, err = r.num(tagCount, 1); err != nil {
		return nil, err
	}
	if job.Count < 1 {
		return nil, fmt.Errorf("xrsl: count must be positive, got %d", job.Count)
	}
	if job.JobType, err = r.str(tagJobType, "exec"); err != nil {
		return nil, err
	}
	switch job.JobType {
	case "exec", "func", "queue":
	default:
		return nil, fmt.Errorf("xrsl: unknown jobtype %q (want exec, func, or queue)", job.JobType)
	}
	if job.Queue, err = r.str(tagQueue, ""); err != nil {
		return nil, err
	}
	if job.CallbackContact, err = r.str(tagCallback, ""); err != nil {
		return nil, err
	}
	if job.Restart, err = r.num(tagRestart, 0); err != nil {
		return nil, err
	}
	if job.Restart < 0 {
		return nil, fmt.Errorf("xrsl: restart budget must be non-negative")
	}

	if job.MaxWallTime, err = r.duration(tagMaxTime, time.Minute); err != nil {
		return nil, err
	}
	if job.Timeout, err = r.duration(tagTimeout, time.Millisecond); err != nil {
		return nil, err
	}
	actionStr, err := r.str(tagAction, "")
	if err != nil {
		return nil, err
	}
	switch TimeoutAction(strings.ToLower(actionStr)) {
	case ActionNone, ActionCancel, ActionException:
		job.Action = TimeoutAction(strings.ToLower(actionStr))
	default:
		return nil, fmt.Errorf("xrsl: unknown action %q (want cancel or exception)", actionStr)
	}
	if job.Action != ActionNone && job.Timeout <= 0 {
		return nil, fmt.Errorf("xrsl: action tag requires a positive timeout tag")
	}

	// Environment: (environment=(NAME value)(NAME2 value2)). Its values
	// are sequences, which only the parser path reads.
	if r.spec != nil {
		if job.Environment, err = decodeEnvironment(r.spec); err != nil {
			return nil, err
		}
	}
	return job, nil
}

// str returns t's first value, or def when it is absent.
func (r *relations) str(t tag, def string) (string, error) {
	v, ok, err := r.first(t)
	if err != nil || !ok {
		return def, err
	}
	return v, nil
}

// num returns t's first value as an integer, or def when it is absent.
func (r *relations) num(t tag, def int) (int, error) {
	v, ok, err := r.first(t)
	if err != nil || !ok {
		return def, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return def, fmt.Errorf("rsl: attribute %q is not an integer: %w", tagNames[t], err)
	}
	return n, nil
}

// duration reads t's first value as a duration; bare integers take the
// given unit, matching GRAM (maxtime in minutes) and the paper's timeout
// example ((timeout=1000) is milliseconds).
func (r *relations) duration(t tag, unit time.Duration) (time.Duration, error) {
	v, ok, err := r.first(t)
	if err != nil || !ok {
		return 0, err
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("xrsl: %s must be non-negative", tagNames[t])
		}
		return time.Duration(n) * unit, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("xrsl: %s is not a duration: %q", tagNames[t], v)
	}
	return d, nil
}

func decodeEnvironment(spec *rsl.Spec) (map[string]string, error) {
	var env map[string]string
	for _, r := range spec.Relations() {
		if r.Op != rsl.OpEq || !rsl.AttrEqual(r.Attribute, "environment") {
			continue
		}
		for _, v := range r.Values {
			seq, ok := v.(rsl.Sequence)
			if !ok || len(seq.Items) != 2 {
				return nil, fmt.Errorf("xrsl: environment entries must be (NAME value) pairs, got %s", v.Unparse())
			}
			name, err := rsl.EvalValue(seq.Items[0], spec.Env())
			if err != nil {
				return nil, err
			}
			val, err := rsl.EvalValue(seq.Items[1], spec.Env())
			if err != nil {
				return nil, err
			}
			if env == nil {
				env = make(map[string]string)
			}
			env[name] = val
		}
	}
	return env, nil
}

func parseBool(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "true", "yes", "1", "on":
		return true, nil
	case "false", "no", "0", "off":
		return false, nil
	}
	return false, fmt.Errorf("not a boolean: %q", s)
}

// quoteValue renders v as an RSL literal, quoting when needed.
func quoteValue(v string) string { return rsl.Literal{Text: v}.Unparse() }

// Encode renders an InfoRequest back to canonical xRSL.
func (r *InfoRequest) Encode() string {
	var sb strings.Builder
	sb.WriteString("&")
	switch {
	case r.Schema:
		sb.WriteString("(info=schema)")
	case r.All || len(r.Keywords) == 0:
		sb.WriteString("(info=all)")
	default:
		for _, kw := range r.Keywords {
			fmt.Fprintf(&sb, "(info=%s)", quoteValue(kw))
		}
	}
	if r.Response != cache.Cached {
		fmt.Fprintf(&sb, "(response=%s)", r.Response)
	}
	if r.Quality > 0 {
		fmt.Fprintf(&sb, "(quality=%g)", float64(r.Quality))
	}
	if r.Performance {
		sb.WriteString("(performance=true)")
	}
	if r.Format != "" && r.Format != FormatLDIF {
		fmt.Fprintf(&sb, "(format=%s)", r.Format)
	}
	if r.Filter != "" {
		fmt.Fprintf(&sb, "(filter=%s)", quoteValue(r.Filter))
	}
	return sb.String()
}

// Encode renders a JobRequest back to canonical xRSL.
func (j *JobRequest) Encode() string {
	var sb strings.Builder
	sb.WriteString("&")
	fmt.Fprintf(&sb, "(executable=%s)", quoteValue(j.Executable))
	if len(j.Arguments) > 0 {
		sb.WriteString("(arguments=")
		for i, a := range j.Arguments {
			if i > 0 {
				sb.WriteString(" ")
			}
			sb.WriteString(quoteValue(a))
		}
		sb.WriteString(")")
	}
	if j.Directory != "" {
		fmt.Fprintf(&sb, "(directory=%s)", quoteValue(j.Directory))
	}
	if j.Stdin != "" {
		fmt.Fprintf(&sb, "(stdin=%s)", quoteValue(j.Stdin))
	}
	if j.Count > 1 {
		fmt.Fprintf(&sb, "(count=%d)", j.Count)
	}
	if j.JobType != "" && j.JobType != "exec" {
		fmt.Fprintf(&sb, "(jobtype=%s)", j.JobType)
	}
	if j.Queue != "" {
		fmt.Fprintf(&sb, "(queue=%s)", quoteValue(j.Queue))
	}
	if j.MaxWallTime > 0 {
		fmt.Fprintf(&sb, "(maxtime=%s)", j.MaxWallTime)
	}
	if j.Timeout > 0 {
		fmt.Fprintf(&sb, "(timeout=%d)", j.Timeout.Milliseconds())
	}
	if j.Action != ActionNone {
		fmt.Fprintf(&sb, "(action=%s)", j.Action)
	}
	if j.Restart > 0 {
		fmt.Fprintf(&sb, "(restart=%d)", j.Restart)
	}
	if j.CallbackContact != "" {
		fmt.Fprintf(&sb, "(callback=%s)", quoteValue(j.CallbackContact))
	}
	if len(j.Environment) > 0 {
		names := make([]string, 0, len(j.Environment))
		for n := range j.Environment {
			names = append(names, n)
		}
		sort.Strings(names)
		sb.WriteString("(environment=")
		for i, n := range names {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "(%s %s)", quoteValue(n), quoteValue(j.Environment[n]))
		}
		sb.WriteString(")")
	}
	return sb.String()
}
