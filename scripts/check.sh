#!/bin/sh
# Repository health gate: formatting, static analysis, and the full test
# suite under the race detector. Run from the repository root:
#
#	./scripts/check.sh
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

# The benchmark suite is a nested module that ./... does not reach: vet
# and test it here, so a refactor of internal/ that breaks it fails this
# gate instead of the next benchmark run.
echo "== benchmark module (vet, test -race) =="
(cd benchmark && go vet ./... && go test -race ./...)

# The trace chaos scenarios re-run explicitly (and under -race): they
# assert that injected wire and provider faults still leave finished,
# correctly-parented span trees in the trace store.
echo "== trace chaos (-race) =="
go test -race -count=1 -run '^TestTraceChaos$|^TestTraceConcurrentPoolCalls$' ./internal/integration/

# CHECK_FUZZTIME extends the per-target fuzz budget (e.g. the nightly CI
# run passes 60s); the default keeps interactive runs quick.
fuzztime=${CHECK_FUZZTIME:-10s}
echo "== fuzz smoke ($fuzztime per target) =="
for target in \
	FuzzParse:./internal/rsl \
	FuzzEvalValue:./internal/rsl \
	FuzzFrameRoundTrip:./internal/wire \
	FuzzFrameDecode:./internal/wire \
	FuzzRejectFrameDecode:./internal/wire \
	FuzzSessionFrames:./internal/session \
	FuzzParseXRSL:./internal/xrsl \
	FuzzParseFilter:./internal/mds \
	FuzzReplay:./internal/logging \
	FuzzSnapshotRestore:./internal/bytecache; do
	name=${target%%:*}
	pkg=${target#*:}
	echo "-- $name ($pkg)"
	go test -run='^$' -fuzz="^${name}\$" -fuzztime="$fuzztime" "$pkg"
done

# The admission soak: a sustained open-loop run through the full stack
# (GSI handshake, mux, quota buckets, inflight gate, providers) under the
# race detector, asserting continuous shedding, that shed requests never
# reach a provider, and that no goroutines leak. CHECK_SOAK_TIME sets the
# offered duration (default 60s); CHECK_SOAK_TIME=0 skips it.
soaktime=${CHECK_SOAK_TIME:-60s}
if [ "$soaktime" != "0" ]; then
	echo "== admission soak ($soaktime, -race) =="
	INFOGRAM_SOAK=1 INFOGRAM_SOAK_TIME="$soaktime" \
		go test -race -count=1 -run '^TestSoakOpenLoopUnderAdmission$' ./internal/loadgen/
fi

echo "ok: all checks passed"
