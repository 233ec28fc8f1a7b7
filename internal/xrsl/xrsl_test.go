package xrsl

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"infogram/internal/cache"
	"infogram/internal/rsl"
)

func TestDecodeInfoQuery(t *testing.T) {
	reqs, err := Decode("&(info=Memory)(info=CPU)(response=immediate)(quality=80)(performance=true)(format=xml)(filter=Memory:*)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Kind != KindInfo {
		t.Fatalf("reqs = %+v", reqs)
	}
	info := reqs[0].Info
	if len(info.Keywords) != 2 || info.Keywords[0] != "Memory" || info.Keywords[1] != "CPU" {
		t.Errorf("Keywords = %v", info.Keywords)
	}
	if info.Response != cache.Immediate {
		t.Errorf("Response = %v", info.Response)
	}
	if info.Quality != 80 {
		t.Errorf("Quality = %v", info.Quality)
	}
	if !info.Performance {
		t.Error("Performance not set")
	}
	if info.Format != FormatXML {
		t.Errorf("Format = %v", info.Format)
	}
	if info.Filter != "Memory:*" {
		t.Errorf("Filter = %q", info.Filter)
	}
}

func TestDecodeInfoAll(t *testing.T) {
	req, err := DecodeOne("(info=all)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Info.All || len(req.Info.Keywords) != 0 {
		t.Errorf("info = %+v", req.Info)
	}
	// all subsumes explicit keywords.
	req2, err := DecodeOne("(info=Memory)(info=all)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !req2.Info.All || len(req2.Info.Keywords) != 0 {
		t.Errorf("info = %+v", req2.Info)
	}
}

func TestDecodeSchemaQuery(t *testing.T) {
	req, err := DecodeOne("(info=schema)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Info.Schema {
		t.Error("Schema not set")
	}
}

func TestDecodeResponseModes(t *testing.T) {
	for str, want := range map[string]cache.Mode{
		"cached": cache.Cached, "immediate": cache.Immediate, "last": cache.Last,
	} {
		req, err := DecodeOne("(info=all)(response="+str+")", nil)
		if err != nil {
			t.Errorf("response=%s: %v", str, err)
			continue
		}
		if req.Info.Response != want {
			t.Errorf("response=%s decoded to %v", str, req.Info.Response)
		}
	}
	if _, err := DecodeOne("(info=all)(response=bogus)", nil); err == nil {
		t.Error("expected error for bogus response mode")
	}
}

func TestDecodeJob(t *testing.T) {
	src := `&(executable=/bin/app)(arguments=one "two three")(directory=/tmp)(count=2)` +
		`(environment=(PATH /bin)(LANG C))(stdin=in.txt)(queue=batch)(maxtime=5)` +
		`(timeout=1000)(action=cancel)(restart=2)(callback=127.0.0.1:9999)`
	req, err := DecodeOne(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindJob {
		t.Fatalf("kind = %v", req.Kind)
	}
	j := req.Job
	if j.Executable != "/bin/app" {
		t.Errorf("Executable = %q", j.Executable)
	}
	if len(j.Arguments) != 2 || j.Arguments[1] != "two three" {
		t.Errorf("Arguments = %v", j.Arguments)
	}
	if j.Directory != "/tmp" || j.Stdin != "in.txt" || j.Queue != "batch" {
		t.Errorf("job = %+v", j)
	}
	if j.Count != 2 {
		t.Errorf("Count = %d", j.Count)
	}
	if j.Environment["PATH"] != "/bin" || j.Environment["LANG"] != "C" {
		t.Errorf("Environment = %v", j.Environment)
	}
	if j.MaxWallTime != 5*time.Minute {
		t.Errorf("MaxWallTime = %v (maxtime unit is minutes)", j.MaxWallTime)
	}
	if j.Timeout != time.Second {
		t.Errorf("Timeout = %v (timeout unit is milliseconds)", j.Timeout)
	}
	if j.Action != ActionCancel {
		t.Errorf("Action = %v", j.Action)
	}
	if j.Restart != 2 {
		t.Errorf("Restart = %d", j.Restart)
	}
	if j.CallbackContact != "127.0.0.1:9999" {
		t.Errorf("Callback = %q", j.CallbackContact)
	}
}

func TestDecodeJobDefaults(t *testing.T) {
	req, err := DecodeOne("(executable=/bin/true)", nil)
	if err != nil {
		t.Fatal(err)
	}
	j := req.Job
	if j.Count != 1 || j.JobType != "exec" || j.Restart != 0 || j.Action != ActionNone {
		t.Errorf("defaults = %+v", j)
	}
}

func TestDecodeRejectsMixed(t *testing.T) {
	if _, err := DecodeOne("(executable=/bin/true)(info=all)", nil); err == nil {
		t.Error("mixed executable+info should fail")
	}
}

func TestDecodeRejectsNeither(t *testing.T) {
	if _, err := DecodeOne("(count=2)", nil); err == nil {
		t.Error("no executable, no info should fail")
	}
}

func TestDecodeValidation(t *testing.T) {
	bad := []string{
		"(executable=x)(count=0)",
		"(executable=x)(count=-1)",
		"(executable=x)(jobtype=weird)",
		"(executable=x)(restart=-1)",
		"(executable=x)(action=cancel)", // action without timeout
		"(executable=x)(action=explode)(timeout=10)",
		"(executable=x)(timeout=-5)",
		"&(executable=x)(count=three)",
		"&(executable=x)(jobtype=Func)",
		"(info=all)(quality=150)",
		"(info=all)(quality=-1)",
		"(info=all)(quality=abc)",
		"(info=all)(format=yaml)",
		"(info=all)(performance=maybe)",
		"(executable=x)(environment=(ONLYNAME))(environment=bad)",
	}
	for _, src := range bad {
		if _, err := DecodeOne(src, nil); err == nil {
			t.Errorf("DecodeOne(%q): expected error", src)
		}
	}
}

func TestDecodeMulti(t *testing.T) {
	reqs, err := Decode("+(&(info=all))(&(executable=/bin/true))(&(info=schema))", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests", len(reqs))
	}
	kinds := []Kind{reqs[0].Kind, reqs[1].Kind, reqs[2].Kind}
	if kinds[0] != KindInfo || kinds[1] != KindJob || kinds[2] != KindInfo {
		t.Errorf("kinds = %v", kinds)
	}
	if _, err := DecodeOne("+(&(info=all))(&(executable=x))", nil); err == nil {
		t.Error("DecodeOne should reject multi-requests")
	}
}

func TestDecodeTimeoutDurationSyntax(t *testing.T) {
	req, err := DecodeOne("(executable=x)(timeout=1.5s)(action=exception)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if req.Job.Timeout != 1500*time.Millisecond {
		t.Errorf("Timeout = %v", req.Job.Timeout)
	}
	if req.Job.Action != ActionException {
		t.Errorf("Action = %v", req.Job.Action)
	}
}

func TestQualityPercentSuffix(t *testing.T) {
	req, err := DecodeOne("(info=all)(quality=75%)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if req.Info.Quality != 75 {
		t.Errorf("Quality = %v", req.Info.Quality)
	}
}

func TestInfoRequestEncodeRoundTrip(t *testing.T) {
	cases := []InfoRequest{
		{All: true, Format: FormatLDIF},
		{Keywords: []string{"Memory", "CPU"}, Response: cache.Immediate, Format: FormatLDIF},
		{Schema: true, Format: FormatXML},
		{Keywords: []string{"CPULoad"}, Quality: 66.5, Performance: true, Format: FormatLDIF},
		{All: true, Filter: "Memory:*", Format: FormatXML},
		{Keywords: []string{"weird keyword"}, Format: FormatLDIF},
		{Keywords: []string{"Memory"}, Format: FormatDSML},
	}
	for _, want := range cases {
		src := want.Encode()
		req, err := DecodeOne(src, nil)
		if err != nil {
			t.Errorf("re-decode %q: %v", src, err)
			continue
		}
		if req.Kind != KindInfo {
			t.Errorf("%q decoded to kind %v", src, req.Kind)
			continue
		}
		got := req.Info
		if got.All != want.All || got.Schema != want.Schema ||
			got.Response != want.Response || got.Quality != want.Quality ||
			got.Performance != want.Performance || got.Format != want.Format ||
			got.Filter != want.Filter || strings.Join(got.Keywords, ",") != strings.Join(want.Keywords, ",") {
			t.Errorf("round trip %q:\n got %+v\nwant %+v", src, got, want)
		}
	}
}

func TestJobRequestEncodeRoundTrip(t *testing.T) {
	cases := []JobRequest{
		{Executable: "/bin/true", Count: 1, JobType: "exec"},
		{Executable: "hello", Arguments: []string{"a", "b c"}, Count: 3, JobType: "func"},
		{Executable: "/bin/x", Directory: "/tmp", Stdin: "in", Count: 1, JobType: "exec",
			Environment: map[string]string{"A": "1", "B": "two words"}},
		{Executable: "x", Count: 1, JobType: "exec", Timeout: 2 * time.Second, Action: ActionException},
		{Executable: "x", Count: 1, JobType: "queue", Queue: "batch", Restart: 3,
			MaxWallTime: 2 * time.Minute, CallbackContact: "127.0.0.1:8"},
	}
	for _, want := range cases {
		src := want.Encode()
		req, err := DecodeOne(src, nil)
		if err != nil {
			t.Errorf("re-decode %q: %v", src, err)
			continue
		}
		got := req.Job
		if got.Executable != want.Executable || got.Directory != want.Directory ||
			got.Stdin != want.Stdin || got.Count != want.Count ||
			got.JobType != want.JobType || got.Queue != want.Queue ||
			got.Timeout != want.Timeout || got.Action != want.Action ||
			got.Restart != want.Restart || got.MaxWallTime != want.MaxWallTime ||
			got.CallbackContact != want.CallbackContact ||
			strings.Join(got.Arguments, "\x00") != strings.Join(want.Arguments, "\x00") {
			t.Errorf("round trip %q:\n got %+v\nwant %+v", src, got, want)
		}
		for k, v := range want.Environment {
			if got.Environment[k] != v {
				t.Errorf("env %s = %q, want %q", k, got.Environment[k], v)
			}
		}
	}
}

// TestInfoEncodePropertyKeywords: arbitrary keyword strings survive the
// encode/decode cycle.
func TestInfoEncodePropertyKeywords(t *testing.T) {
	prop := func(kw string) bool {
		if kw == "" || strings.ContainsRune(kw, 0) {
			return true
		}
		lower := strings.ToLower(kw)
		if lower == "all" || lower == "schema" {
			return true // reserved words
		}
		src := (&InfoRequest{Keywords: []string{kw}, Format: FormatLDIF}).Encode()
		req, err := DecodeOne(src, nil)
		if err != nil || req.Kind != KindInfo {
			return false
		}
		return len(req.Info.Keywords) == 1 && req.Info.Keywords[0] == kw
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat(""); err != nil || f != FormatLDIF {
		t.Errorf("empty format: %v %v", f, err)
	}
	if f, err := ParseFormat("XML"); err != nil || f != FormatXML {
		t.Errorf("XML: %v %v", f, err)
	}
	if f, err := ParseFormat("DSML"); err != nil || f != FormatDSML {
		t.Errorf("DSML: %v %v", f, err)
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("yaml should be rejected")
	}
}

func TestPaperXRSLExamples(t *testing.T) {
	// The exact tag combinations shown in §6.5 decode as intended.
	req, err := DecodeOne("(info=Memory)(info=CPU)", nil)
	if err != nil || len(req.Info.Keywords) != 2 {
		t.Errorf("selective query: %+v %v", req, err)
	}
	req, err = DecodeOne("(executable=command)(timeout=1000)(action=cancel)", nil)
	if err != nil || req.Job.Timeout != time.Second || req.Job.Action != ActionCancel {
		t.Errorf("timeout example: %+v %v", req, err)
	}
	req, err = DecodeOne("(executable=myjavaapplication.jar)", nil)
	if err != nil || req.Job.Executable != "myjavaapplication.jar" {
		t.Errorf("jar example: %+v %v", req, err)
	}
}

// TestSinglePassJobSource: the single pass takes a job only when its source
// is already what rsl's Unparse writes, and then the Source is the source
// itself; any other job goes to the parser path, which renders it. Either
// way the Source is the canonical rendering.
func TestSinglePassJobSource(t *testing.T) {
	for _, c := range []struct {
		src    string
		single bool
	}{
		{"&(executable=noop)(jobtype=func)(arguments=1y2p0ij32e8e7)", true},
		{(&JobRequest{Executable: "/bin/echo", Arguments: []string{"a", "b c", ""}, Directory: "/tmp", Count: 2,
			JobType: "func", MaxWallTime: time.Minute, Timeout: time.Second, Action: ActionCancel, Restart: 1}).Encode(), true},
		{`&(Executable="a b")(arguments="" c)(foo=bar)`, true},
		{"&(executable=x)(jobtype=bogus)", true}, // an error either way
		{"(executable=x)", false},
		{"(executable=x)(jobtype=func)", false},
		{"&(executable=x) ", false},
		{"&( executable=x)", false},
		{`&(executable="x")`, false},
		{"&(executable=x)(arguments=a  b)", false},
		{"&(executable=x)(arguments=a\tb)", false},
		{`&(executable=x)(arguments="a"b)`, false},
		{"&(executable=x)(environment=(A 1))", false},
	} {
		_, single, _ := decodeSinglePass(c.src)
		if single != c.single {
			t.Errorf("%q: single pass took it = %v, want %v", c.src, single, c.single)
		}
		reqs, err := Decode(c.src, nil)
		if err != nil {
			continue
		}
		if want := rsl.MustParse(c.src).Unparse(); reqs[0].Source != want {
			t.Errorf("%q: Source = %q, want %q", c.src, reqs[0].Source, want)
		}
		if single && reqs[0].Source != c.src {
			t.Errorf("%q: single-pass Source = %q, want the source itself", c.src, reqs[0].Source)
		}
	}
}
