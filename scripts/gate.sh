#!/bin/sh
# The nightly gate: everything that judges this repository beyond
# `go test` and the per-PR benchmark comparison. Run from anywhere:
#
#	./scripts/gate.sh
#
# 1. The benchmark suite (benchmark/README.md). Its own exit code is the
#    gate: non-zero when any operation of any workload failed its
#    verifier. Numbers are compared against the parent commit by the PR
#    pipeline, never against a checked-in baseline, so there is no
#    baseline file and nothing to re-baseline.
# 2. The warm-restart / refresh-ahead reference point. The test asserts
#    its own ratio thresholds (see TestWarmRestartReference).
# 3. Kill-leader failover through the real binaries. A journaled leader
#    accepts a mix of terminal and long-running jobs, then dies with
#    SIGKILL. A -follow -promote standby that has been replicating the
#    journal must detect the loss, promote itself, and resubmit every
#    non-terminal job — zero journaled-job loss. No cmd/ package has a
#    test, so this is the only place the binaries themselves run.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
	echo "FAIL: $1" >&2
	[ -z "${2:-}" ] || cat "$2" >&2
	exit 1
}

echo "== 1/3 benchmark suite (result: benchmark/out/suite.json) =="
bash benchmark/run.sh >benchmark/out/suite.json

echo "== 2/3 warm restart + refresh-ahead reference point =="
INFOGRAM_WARMBENCH=1 go test -count=1 -run '^TestWarmRestartReference$' ./internal/core/

echo "== 3/3 kill-leader failover =="
go build -o "$tmp/" ./cmd/infogram-server ./cmd/infogram

# wait_log LOGFILE PID PATTERN TENTHS — wait until PATTERN shows up in a
# server's log; fails when the server dies or the time runs out.
wait_log() {
	_i=0
	until grep -q "$3" "$1"; do
		kill -0 "$2" 2>/dev/null || fail "server behind $1 exited" "$1"
		[ $_i -lt "$4" ] || fail "no \"$3\" in $1" "$1"
		_i=$((_i + 1))
		sleep 0.1
	done
}

# wait_addr LOGFILE PID — print the address a server reports bound.
wait_addr() {
	wait_log "$1" "$2" "serving on" 100
	sed -n 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p' "$1" | head -1
}

# cli SERVER COMMAND... — run the client against one server.
cli() { "$tmp/infogram" -fabric "$tmp/fabric" -server "$@"; }

# job_state SERVER CONTACT — prints the job's current state.
job_state() {
	cli "$1" status "$2" | sed -n 's/^state: //p'
}

# wait_state SERVER CONTACT STATE — poll up to 10 s for the job's state.
wait_state() {
	_i=0
	until _st=$(job_state "$1" "$2") && [ "$_st" = "$3" ]; do
		[ $_i -lt 100 ] || fail "job $2 never $3 ($_st)"
		_i=$((_i + 1))
		sleep 0.1
	done
}

mkdir -p "$tmp/leader-state" "$tmp/standby-state"
"$tmp/infogram-server" -fabric "$tmp/fabric" -addr 127.0.0.1:0 \
	-state-dir "$tmp/leader-state" >"$tmp/leader.log" 2>&1 &
leaderpid=$!
pids="$pids $leaderpid"
leader=$(wait_addr "$tmp/leader.log" "$leaderpid")

"$tmp/infogram-server" -fabric "$tmp/fabric" -addr 127.0.0.1:0 \
	-follow "$leader" -promote -state-dir "$tmp/standby-state" \
	>"$tmp/standby.log" 2>&1 &
standbypid=$!
pids="$pids $standbypid"
wait_log "$tmp/standby.log" "$standbypid" "follower synced" 100

# Two jobs finish, two are mid-flight when the leader dies.
c1=$(cli "$leader" submit '&(executable=/bin/echo)(arguments=done)')
c2=$(cli "$leader" submit '&(executable=/bin/echo)(arguments=done)')
s1=$(cli "$leader" submit '&(executable=/bin/sleep)(arguments=60)')
s2=$(cli "$leader" submit '&(executable=/bin/sleep)(arguments=60)')
for c in $s1 $s2; do wait_state "$leader" "$c" ACTIVE; done
for c in $c1 $c2; do wait_state "$leader" "$c" DONE; done
# Give the live record tail a moment to reach the standby's journal.
sleep 2

kill -9 "$leaderpid" 2>/dev/null || true
wait "$leaderpid" 2>/dev/null || true
echo "leader killed; waiting for promotion"

wait_log "$tmp/standby.log" "$standbypid" "journal replayed" 300
promoted=$(wait_addr "$tmp/standby.log" "$standbypid")
resumed=$(sed -n 's/.*journal replayed [0-9]* job(s).*(\([0-9]*\) resumed).*/\1/p' "$tmp/standby.log" | head -1)
echo "promoted gatekeeper on $promoted (resumed=$resumed)"
[ "$resumed" = "2" ] ||
	fail "promotion resumed $resumed jobs; want the 2 non-terminal jobs" "$tmp/standby.log"

# Every journaled job must be answerable on the promoted node: the
# terminal pair with their recorded state, the in-flight pair resubmitted.
for c in $c1 $c2; do
	st=$(job_state "$promoted" "$c")
	[ "$st" = "DONE" ] || fail "terminal job $c lost in promotion ($st)"
done
for c in $s1 $s2; do
	st=$(job_state "$promoted" "$c")
	case $st in
	PENDING | ACTIVE) ;;
	*) fail "in-flight job $c not resubmitted after promotion ($st)" ;;
	esac
done
echo "ok: failover resubmitted all non-terminal jobs, terminal history preserved"
echo "ok: gate passed"
