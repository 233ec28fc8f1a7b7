#!/bin/sh
# Nightly regression gate for the managed-cache stack: replays its two
# reference points in ./internal/core/ and fails when either regresses.
# Run from the repository root:
#
#	./scripts/cache-regress.sh
#
# 1. The hit path (TestCacheHitPathReference): 1M keys, Zipf(1.1). The
#    per-lookup p99 may not exceed the checked-in baseline by more than 20%
#    and the hit path may not allocate at all. The p99 of single lookups at
#    a few hundred nanoseconds each is sensitive to host speed, so the
#    baseline is only meaningful on comparable machines — regenerate it
#    when the CI runner class changes, or after a deliberate performance
#    change, with CACHE_REBASELINE=1 (records the WORST p99 of three runs).
#    Baseline: scripts/cache-baseline.json ({"keys":...,"zipf":...,
#    "p99_ns":...,"allocs_per_op":...}).
#
# 2. Warm restart and refresh-ahead (TestWarmRestartReference). The
#    thresholds are ratios, so no per-host baseline is needed:
#      - restart_speedup >= 10: a warm restart's first answer (snapshot
#        restore + first hit) is at least 10x faster than a cold one
#        (which pays the deliberate ~5ms provider delay).
#      - hot_miss_ratio < 0.01: under Zipf steady state with refresh-ahead
#        armed, the top-decile keys miss less than 1% of the time.
#      - p99_ns <= 2 * hit_p99_ns: the overall request p99 stays within 2x
#        of the pure hit path — refresh-ahead, not requests, pays provider
#        cost.
#
# Both points are noisy run-to-run (the p99 of 65536 samples is its ~655
# worst, and a loaded host can starve the refresh workers), so each passes
# if ANY of up to three attempts clears its thresholds — a genuine
# regression is persistent across attempts, scheduler jitter is not.
# Allocations are not hedged by this: the hit path is allocation-free by
# construction (the baseline says 0, and 20% over 0 is still 0), so any
# measured allocation fails every attempt.
set -eu

cd "$(dirname "$0")/.."

baseline="scripts/cache-baseline.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# field FILE KEY — the number stored under KEY in a one-line JSON object.
field() {
	sed -n 's/.*"'"$2"'":\([0-9.e+-]*\).*/\1/p' "$1"
}

# run_point ENV TEST KEY... — one run of a reference test, its JSON left in
# $tmp/point.json; every KEY must be present in it.
run_point() {
	env_name=$1 test_name=$2
	shift 2
	# Explicit failure handling: inside any_of_three's `if`, set -e is off.
	rm -f "$tmp/point.json"
	env "$env_name=1" "${env_name}_OUT=$tmp/point.json" \
		go test -count=1 -run "^${test_name}\$" ./internal/core/ || {
		echo "cache-regress: $test_name failed" >&2
		exit 1
	}
	for key in "$@"; do
		[ -n "$(field "$tmp/point.json" "$key")" ] || {
			echo "cache-regress: no $key in the result of $test_name" >&2
			exit 1
		}
	done
}

# any_of_three NAME CHECK — CHECK runs one attempt (its number is $1) and
# returns 0 when the attempt cleared every threshold.
any_of_three() {
	for attempt in 1 2 3; do
		if "$2" "$attempt"; then
			return 0
		fi
	done
	echo "FAIL: $1 regressed on all attempts" >&2
	return 1
}

hit_path() {
	run_point INFOGRAM_CACHEBENCH TestCacheHitPathReference p99_ns allocs_per_op
	got_p99=$(field "$tmp/point.json" p99_ns)
	got_allocs=$(field "$tmp/point.json" allocs_per_op)
}

hit_path_attempt() {
	hit_path
	echo "attempt $1: p99=${got_p99}ns (limit ${p99_limit}ns)" \
		"allocs/op=${got_allocs} (limit ${allocs_limit})"
	awk -v p="$got_p99" -v pl="$p99_limit" -v a="$got_allocs" -v al="$allocs_limit" \
		'BEGIN { exit !(p <= pl && a <= al) }'
}

warm_restart_attempt() {
	run_point INFOGRAM_WARMBENCH TestWarmRestartReference \
		restart_speedup hot_miss_ratio p99_ns hit_p99_ns
	speedup=$(field "$tmp/point.json" restart_speedup)
	hot_miss=$(field "$tmp/point.json" hot_miss_ratio)
	p99=$(field "$tmp/point.json" p99_ns)
	hit_p99=$(field "$tmp/point.json" hit_p99_ns)
	echo "attempt $1: restart_speedup=${speedup}x (>=10)" \
		"hot_miss_ratio=${hot_miss} (<0.01) p99=${p99}ns (<= 2x ${hit_p99}ns)"
	awk -v s="$speedup" -v m="$hot_miss" -v p="$p99" -v h="$hit_p99" \
		'BEGIN { exit !(s >= 10 && m < 0.01 && p <= 2 * h) }'
}

echo "== cache hit-path reference point: 1M keys, Zipf(1.1) =="

if [ "${CACHE_REBASELINE:-}" = "1" ]; then
	worst_p99=0
	worst_allocs=0
	for attempt in 1 2 3; do
		hit_path
		echo "attempt $attempt: p99=${got_p99}ns allocs/op=${got_allocs}"
		[ "$got_p99" -gt "$worst_p99" ] && worst_p99=$got_p99
		worst_allocs=$(awk -v a="$worst_allocs" -v b="$got_allocs" \
			'BEGIN { print (b > a) ? b : a }')
	done
	printf '{"keys":%s,"zipf":%s,"p99_ns":%s,"allocs_per_op":%s}\n' \
		"$(field "$tmp/point.json" keys)" "$(field "$tmp/point.json" zipf)" \
		"$worst_p99" "$worst_allocs" >"$baseline"
	echo "ok: baseline rewritten: p99=${worst_p99}ns allocs/op=${worst_allocs} (worst of 3)"
	exit 0
fi

want_p99=$(field "$baseline" p99_ns)
want_allocs=$(field "$baseline" allocs_per_op)
[ -n "$want_p99" ] && [ -n "$want_allocs" ] || {
	echo "cache-regress: cannot parse $baseline" >&2
	exit 1
}
p99_limit=$((want_p99 + want_p99 / 5))
allocs_limit=$(awk -v a="$want_allocs" 'BEGIN { print a * 1.2 }')

status=0
any_of_three "cache hit path (p99 or allocs >20% over baseline)" hit_path_attempt &&
	echo "ok: hit-path p99 and allocs within 20% of baseline" || status=1

echo "== warm-restart + refresh-ahead reference point =="
any_of_three "warm-restart/refresh-ahead guarantees" warm_restart_attempt &&
	echo "ok: warm restart >=10x cold, hot-decile misses <1%, p99 within 2x of hit path" || status=1

exit $status
