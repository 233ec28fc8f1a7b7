package xrsl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"infogram/internal/cache"
	"infogram/internal/rsl"
)

// FuzzParseXRSL guards the xRSL decoder against panics and checks that any
// specification it accepts re-encodes into something it accepts again with
// the same classification. Exact value round-trips are not asserted —
// encoding normalizes representations (e.g. timeout renders in whole
// milliseconds) — but a decoded request must never encode into garbage.
func FuzzParseXRSL(f *testing.F) {
	seeds := []string{
		// Information queries across the §6.5 tag surface.
		"(info=all)",
		"(info=Date)(performance=true)",
		"(info=Memory)(info=CPU)(format=xml)",
		"(info=schema)",
		"(info=all)(response=cached)(quality=75)",
		"(info=all)(filter=Memory:*)(format=dsml)",
		"(info=selfmetrics)",
		// Job submissions: GRAM attributes plus the paper's extensions.
		"(executable=/bin/date)(arguments=-u)",
		"&(executable=/bin/echo)(arguments=a b c)(count=2)(jobtype=func)",
		"(executable=/bin/sleep)(arguments=1)(timeout=500)(action=cancel)",
		"(executable=/bin/true)(restart=3)(callback=127.0.0.1:9999)",
		"(executable=/bin/ls)(directory=/tmp)(environment=(A 1)(B 2))(queue=default)(maxtime=5)",
		"(executable=/bin/cat)(stdin=/etc/hostname)(jobtype=queue)",
		// Multi-requests mixing both kinds.
		"+(&(info=Date))(&(executable=/bin/echo)(arguments=hi))",
		"+(&(info=all)(format=xml))(&(info=schema))",
		// Invalid and adversarial inputs: must reject, not panic.
		"(executable=/bin/date)(info=all)",
		"(info=)",
		"(timeout=abc)",
		"(quality=999)",
		"((((",
		"",
		"&",
		"(a=$()",
		"(info=all)(response=bogus)",
		"(executable=/bin/x)(jobtype=marsrover)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		env := rsl.NewEnv("HOME", "/home/u", "LOGNAME", "u")
		reqs, err := Decode(src, env)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, req := range reqs {
			var encoded string
			switch req.Kind {
			case KindInfo:
				if req.Info == nil {
					t.Fatalf("info request without Info: %q", src)
				}
				encoded = req.Info.Encode()
			case KindJob:
				if req.Job == nil {
					t.Fatalf("job request without Job: %q", src)
				}
				encoded = req.Job.Encode()
			default:
				t.Fatalf("Decode accepted unclassifiable kind %v: %q", req.Kind, src)
			}
			again, err := DecodeOne(encoded, env)
			if err != nil {
				t.Fatalf("re-encode of accepted request does not decode:\nsrc: %q\nenc: %q\nerr: %v", src, encoded, err)
			}
			if again.Kind != req.Kind {
				t.Fatalf("classification flipped on re-encode: %v -> %v\nsrc: %q\nenc: %q", req.Kind, again.Kind, src, encoded)
			}
		}
	})
}

// FuzzDecodeSinglePass holds Decode's single pass to the parser path it
// short-cuts: for every input, Decode and decodeParsed must agree on
// error-or-not, on the error text, and on the decoded requests, a job's
// Source included.
func FuzzDecodeSinglePass(f *testing.F) {
	// Every shape InfoRequest.Encode produces.
	for _, r := range []InfoRequest{
		{},
		{All: true},
		{Schema: true},
		{Keywords: []string{"Memory"}},
		{Keywords: []string{"Memory", "CPU"}, Response: cache.Immediate, Quality: 75, Performance: true, Format: FormatXML, Filter: "Memory:*"},
		{Keywords: []string{"K03"}, Filter: "*:g2x*"},
		{All: true, Response: cache.Immediate, Format: FormatDSML},
		{Keywords: []string{"two words", ""}, Filter: `say "hi"`},
		{Keywords: []string{"a(b)", "$(X)"}, Filter: "a#b"},
		{Keywords: []string{"ümlaut"}, Quality: 12.5},
	} {
		f.Add(r.Encode())
	}
	// Every shape JobRequest.Encode produces.
	for _, j := range []JobRequest{
		{Executable: "/bin/date"},
		{Executable: "/bin/echo", Arguments: []string{"a", "b c", ""}, Directory: "/tmp", Stdin: "/etc/hostname",
			Count: 2, JobType: "func", Queue: "default", MaxWallTime: time.Minute, Timeout: 1500 * time.Millisecond,
			Action: ActionCancel, Restart: 3, CallbackContact: "127.0.0.1:9999", Environment: map[string]string{"A": "1", "B": "x y"}},
		{Executable: "/bin/echo", Arguments: []string{"a", "b c", ""}, Directory: "/tmp", Stdin: "/etc/hostname",
			Count: 2, JobType: "func", Queue: "default", MaxWallTime: time.Minute, Timeout: 1500 * time.Millisecond,
			Action: ActionCancel, Restart: 3, CallbackContact: "127.0.0.1:9999"},
		{Executable: "noop", JobType: "func", Arguments: []string{"1y2p0ij32e8e7"}},
		{Executable: "x", JobType: "queue", Queue: "batch", Timeout: time.Second, Action: ActionException},
		{Executable: "ümlaut prog", MaxWallTime: 90 * time.Second, Arguments: []string{"a(b)", "$(X)", "a#b", "it's"}},
		{Executable: "say", Arguments: []string{`"hi"`}},
	} {
		f.Add(j.Encode())
	}
	for _, s := range []string{
		// The job strings of the suite, the examples and the commands.
		"&(executable=noop)(jobtype=func)(arguments=1y2p0ij32e8e7)", "&(executable=noop)(jobtype=func)",
		"&(executable=flaky-sim)(jobtype=func)(restart=3)(callback=127.0.0.1:40123)",
		"&(executable=/bin/sleep)(arguments=30)(timeout=200)(action=cancel)",
		"&(executable=/bin/date)(arguments=-u)", "(executable=compute-pi)(jobtype=func)", "(executable=/bin/date)",
		"+(&(info=Resource))(&(executable=/bin/echo)(arguments=one round trip))", "+(&(info=all))(&(executable=/bin/date))",
		`&(executable=/bin/sh)(arguments=-c "sleep 0.05; echo finished")(callback=127.0.0.1:1)`,
		// Lists: several values, repeated relations, adjacent tokens.
		"&(executable=x)(arguments=a b c)", "&(executable=x)(arguments=a)(arguments=b c)",
		"&(arguments=a)(executable=x)(arguments=b)", `&(executable=x)(arguments="a"b)`, `&(executable=x)(arguments=a"b c")`,
		"&(executable=x y)", "&(executable=x)(directory=a b)(jobtype=func exec)",
		// Attributes in mixed case and with underscores.
		"&(Job_Type=func)(executable=x)", "&(EXECUTABLE=x)(JOBTYPE=FUNC)", "&(executable=x)(JobType=func)",
		"&(executable=x)(Max_Time=5)(TIME_OUT=10)(Action=CANCEL)", "&(_executable_=x)(Arguments=A)",
		// Quoted values that need quoting and that do not.
		`&(executable="/bin/x")`, `&(executable="a b")(arguments="" "c d" e)`, `&(executable="")`,
		`&(executable=x)(arguments="it's")`, `&(executable=x)(arguments="ü")`, `&(executable=x)(stdin="a=b")`,
		// Whitespace around tokens, and a bare relation list with no '&'.
		" &(executable=x)", "& (executable=x)", "&( executable=x)", "&(executable =x)", "&(executable= x)",
		"&(executable=x )", "&(executable=x) ", "&(executable=x) (jobtype=func)", "&(executable=x)(arguments=a  b)",
		"&(executable=x)(arguments=a\tb)", "\t&\n(executable=x)(arguments=a\nb)\r", "(executable=x)(jobtype=func)",
		// Validation failures both paths must word the same.
		"&(executable=x)(count=0)", "&(executable=x)(count= 3)", `&(executable=x)(count=" 3 ")`, "&(executable=x)(count=three)",
		"&(executable=x)(restart=-1)", "&(executable=x)(jobtype=bogus)", "&(executable=x)(action=cancel)",
		"&(executable=x)(action=bogus)(timeout=5)", "&(executable=x)(timeout=-5)", "&(executable=x)(maxtime=1m0s)",
		"&(executable=x)(maxtime=soon)", "&(executable=x)(timeout=1.5s)(action=Exception)",
		// executable with info, unknown attributes and neither.
		"&(executable=x)(info=all)", "&(info=a)(executable=x)", "&(executable=x)(foo=bar)", "&(foo=bar)(executable=x)(foo=baz)",
		"&(foo=bar)", "&(jobtype=func)",
		// Every fallback case: variables, concatenation, single and doubled
		// quotes, environment and rsl_substitution, other operators and
		// boolean operators.
		"&(executable=$(HOME)/x)", "&(executable=x)(arguments=$(X))", "&(executable=a#b)", `&(executable="a"#"b")`,
		"&(executable='x')", `&(executable=x)(arguments="say ""hi""")`, "&(executable=x)(environment=(A 1)(B 2))",
		"&(executable=x)(environment=A)", "&(rsl_substitution=(X x))(executable=$(X))", "&(rsl_substitution=x)(executable=x)",
		"&(executable=x)(count>1)", "&(executable!=x)", "&(executable=x)(arguments<=a)",
		"+(&(executable=x))(&(executable=y))", "|(executable=x)(executable=y)", "&(&(executable=x))", "&(executable=(x))",
		"&(executable=)", "&(executable=x", "&(executable=x))", "&(executable=x)y",
		// Case and underscores in tags; several values in one relation.
		"(info=a b)", "(In_Fo=x)", "(INFO=ALL)", "(info=Schema)(FORMAT=XML)",
		// Duplicate tags: the first value of each wins.
		"(info=a)(info=b)(format=xml)(format=dsml)(filter=x)(filter=y)",
		"(info=a)(response=cached)(response=immediate)(quality=10)(quality=20)",
		// Quote escapes, empty strings, variables and substitution.
		`(info=a)(filter="a""b")`, `(info="")`, `(info=a)(filter="")`, `(info=a)(filter="""")`,
		`(info=a)(filter="unterminated)`, `(info='single')`,
		"(info=$(X))", "(info=a)(filter=$(HOME)*)", "(info=$(LOGNAME))",
		"(rsl_substitution=(X x))(info=$(X))", "(rsl_substitution=(X x))(info=a)",
		"(info=a#b)", "(info=a)(filter=\"$(X)\")",
		// Whitespace around every token.
		" & ( info = a ) ( filter = \"x*\" ) ", "\t&\n(\rinfo\t=\nall\r)\n",
		"&(info=a)  ", "( info=a)(format =xml )",
		// A bare relation list with no '&'.
		"(info=a)(info=b)(filter=*)",
		// query_cold's shape: eight info relations and a filter.
		"&(info=K00)(info=K01)(info=K02)(info=K03)(info=K04)(info=K05)(info=K06)(info=K07)(filter=\"*:g1x*\")",
		"&(info=a)(info=b)(info=c)(info=d)(info=e)(info=f)(info=g)(info=h)(info=i)(info=j)(info=k)(info=l)(info=m)(info=n)(info=o)(info=p)(info=q)(info=r)",
		// executable mixed with info, other attributes and operators.
		"(executable=/bin/date)(info=all)", "(info=all)(executable=/bin/date)",
		"(info=all)(foo=bar)", "(info!=a)", "(info=a)(quality<5)", "(info<=a)",
		"(format=xml)", "(filter=x)(response=cached)",
		// Validation failures both paths must word the same.
		"(info=a)(quality=999)", "(info=a)(quality=x%)", "(info=a)(performance=maybe)",
		"(info=a)(format=json)", "(info=a)(response=bogus)", "(info=a)(Response=Immediate)",
		// Malformed input and other boolean operators.
		"", "&", "()", "(info=)", "(info)", "(=a)", "(info=a", "(info=a))", "(info=a)x",
		"&&(info=a)", "&(&(info=a))", "|(info=a)(info=b)", "+(info=a)(info=b)", "+(&(info=a))(&(info=b))",
		"(info==a)", "(info=(a))", "(info=a)(info=b", "(\"info\"=a)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		env := rsl.NewEnv("HOME", "/home/u", "LOGNAME", "u", "X", "x")
		got, gotErr := Decode(src, env)
		want, wantErr := decodeParsed(src, env)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("errors differ for %q:\nDecode:       %v\ndecodeParsed: %v", src, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("requests differ for %q:\nDecode:       %s\ndecodeParsed: %s", src, dumpRequests(got), dumpRequests(want))
		}
		for _, target := range []string{"all", "schema"} {
			if lowerEquals(src, target) != (strings.ToLower(src) == target) {
				t.Fatalf("lowerEquals(%q, %q) disagrees with strings.ToLower", src, target)
			}
		}
	})
}

// dumpRequests renders decoded requests for a failure message.
func dumpRequests(reqs []*Request) string {
	var sb strings.Builder
	for _, r := range reqs {
		fmt.Fprintf(&sb, "{Kind:%v Source:%q Info:%+v Job:%+v} ", r.Kind, r.Source, r.Info, r.Job)
	}
	return sb.String()
}
