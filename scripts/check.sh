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

# The allocation pins (testing.AllocsPerRun budgets) skip under the race
# detector, whose instrumentation allocates, so the run above never
# checks them: run them here without it, uncached. Among them are the
# GSI handshake over net.Pipe (TestHandshakeAllocations, an identity and a
# proxy-depth-2 chain) and a GRIS search on its miss path
# (TestGRISMissAllocations).
echo "== allocation pins (no -race) =="
go test -count=1 -run 'Alloc|AllocatesNothing' ./internal/...

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

# The reused trace bookkeeping re-runs uncached under -race: store slots
# reused under eviction while readers snapshot, a running job's late span
# after its trace's slot went to another trace, a job's detached context
# outliving the request whose Scope is reused, a stored span pinning
# nothing live, a cancellation racing a write, and a mux'd write that
# times out failing its whole connection.
echo "== trace slot and scope reuse (-race) =="
go test -race -count=1 -run '^(TestTraceSlotReuseUnderEviction|TestLateSpanAfterSlotReuse|TestDetachedJobContext|TestStoredSpanPinsNothing)$' ./internal/telemetry/
go test -race -count=1 -run '^(TestLateCancelDoesNotPoisonNextWrite|TestMuxWriteTimeoutFailsConn)$' ./internal/wire/

# One deadline per exchange re-runs uncached under -race: a member that
# reads SEARCH and never replies degrades a GIIS search within 1.5 ×
# MemberTimeout, on a pooled lease and with eight searches queued on its
# four leases; a call cancelled mid-read returns context.Canceled and
# leaves the next call whole, as does a cancel racing a finished call;
# and a Call counts as one write and one read when nothing bounds it, as
# none when its I/O timeout does.
echo "== one deadline per exchange (-race) =="
go test -race -count=1 -run '^TestGIISSilentMemberBoundedByMemberTimeout$' ./internal/mds/
go test -race -count=1 -run '^(TestCancelledCallLeavesNextCallWhole|TestLateCancelDoesNotPoisonNextCall|TestUnboundedOpsCounted)$' ./internal/wire/

# The pool and reconnect scenarios re-run uncached under -race: they
# rebind a restarted server's port, race Close against in-flight leases
# and race concurrent first requests for one dial, which a cached result
# would hide. With them run the job verbs both clients share: the GRAM
# client against both gatekeepers, the Submit misuse error and a
# WaitTerminal that only its context can end.
echo "== pool restarts, reconnects and no re-send (-race) =="
go test -race -count=1 \
	-run '^(TestPoolSurvivesServerRestart|TestGIISMemberRestart|TestGatewayNeverResubmits|TestGatewayNeverRecancels|TestGatewaySharesOneConnection|TestGRAMClientAgainstInfoGram|TestSubmitMisuseHints|TestWaitTerminalHonoursContextOnSilentStatus)$' \
	./internal/core/ ./internal/mds/ ./internal/wsgw/ ./internal/integration/

# One generation per request re-runs uncached under -race: a provider
# registered while a query collects, on the gatekeeper's response cache
# and on the GRIS, must show in the next all-keywords answer instead of
# hiding behind the answer collected without it.
echo "== one generation per request (-race) =="
go test -race -count=1 \
	-run '^(TestRespCacheStoresUnderTheLookupGeneration|TestGRISStoresUnderTheLookupGeneration)$' \
	./internal/core/ ./internal/mds/

# The collect fan-out's semantics re-run uncached under -race, three
# times: fresh keywords read on the calling goroutine beside overlapping
# gated executions, a keyword expiring between the freshness test and its
# read, and the degraded collect's per-provider timeout beside inline
# reads.
echo "== collect fan-out: inline reads beside executions (-race -count=3) =="
go test -race -count=3 \
	-run '^(TestCollectFreshStartsNoWorker|TestCollectFreshBesideGatedExecutions|TestCollectKeywordExpiringAfterTestExecutesOnce|TestCollectDegradedTimeoutBesideFreshKeywords)$' \
	./internal/provider/

# The tests where the job table, the journal, a follower and a recovery
# must hold the same jobs re-run uncached under -race: retention, the
# restart window, the Subscribe cut and recovery race appends, snapshots,
# cuts and resumed jobs against one another.
echo "== one job store: retention, restarts, cuts, recovery (-race) =="
go test -race -count=1 \
	-run '^(TestTableKeepsFinishedWindow|TestApplyStaleRecordCannotReviveFinishedJob|TestTransitionAndApplyAgree|TestFoldForgetsOldestFinishedAcrossSnapshot|TestSubscribeCutKeepsFollowerInStep|TestWillRestartFailureIsNeverForgotten|TestSubscribeCutIsConsistent|TestSubscribeCutRoundTrip|TestLegacyJournalRecoversUnchanged|TestSnapshotLastIDKeepsEvictedContactExpired|TestStaleRecordAfterFinishStaysFinishedOnRecovery|TestRetentionBoundsJobHistory|TestTableAndJournalAgreeWhenFinishesCross|TestRestartOutlivesTheWindow|TestRefusedSubmitIsInNoCopy|TestRecoverySnapshotsLoseNoJob|TestStaleRecordIsNotResumed|TestFollowerInterruptedResyncKeepsJournal|TestFollowerKeepsStaleRecordFromReviving|TestTransitionRefusesFewerRestarts|TestSuspendOnSecondAttemptKeepsRestarts)$' \
	./internal/job/ ./internal/journal/ ./internal/gram/ ./internal/cluster/

# The binaries have no tests of their own. Boot each gatekeeper on a
# fresh state directory, run a job through it with the command-line
# client, scrape its metrics, then SIGTERM it and boot it again on the
# same directory: the journal must replay the job. mds-server must boot
# and serve its metrics. Every wait is bounded, and every child still
# running is killed on exit.
echo "== binary boot smoke =="
smoke=$(mktemp -d)
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$smoke"' EXIT
go build -o "$smoke/bin/" ./cmd/gram-server ./cmd/infogram-server ./cmd/mds-server ./cmd/infogram

# boot LOG BINARY ARGS... starts a server logging to LOG and waits, at most
# 20 s, for the metrics line it prints once it serves; booted is its pid.
boot() {
	log=$1
	shift
	"$smoke/bin/$@" -fabric "$smoke/fabric" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 >"$log" 2>&1 &
	booted=$!
	pids="$pids $booted"
	i=0
	until grep -q 'Prometheus metrics on' "$log"; do
		i=$((i + 1))
		if [ "$i" -gt 200 ] || ! kill -0 "$booted" 2>/dev/null; then
			echo "boot smoke: $1 did not come up:" >&2
			cat "$log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

# scrape LOG fetches /metrics from the address the server logged.
scrape() {
	url=$(sed -n 's|.*Prometheus metrics on \(http://[^ ]*\).*|\1|p' "$1")
	curl -sf --max-time 10 "$url" | grep -q '^# TYPE '
}

for gk in gram-server infogram-server; do
	state="$smoke/$gk.state"
	boot "$smoke/$gk.1.log" "$gk" -state-dir "$state"
	addr=$(sed -n 's|.*serving.* on \([0-9.]*:[0-9]*\).*|\1|p' "$smoke/$gk.1.log")
	timeout 30 "$smoke/bin/infogram" -fabric "$smoke/fabric" -server "$addr" -timeout 20s \
		run '(executable=/bin/true)' >/dev/null
	scrape "$smoke/$gk.1.log"
	kill -TERM "$booted"
	wait "$booted"
	boot "$smoke/$gk.2.log" "$gk" -state-dir "$state"
	if ! grep -q 'journal replayed 1 job(s)' "$smoke/$gk.2.log"; then
		echo "boot smoke: $gk did not replay its journal:" >&2
		cat "$smoke/$gk.2.log" >&2
		exit 1
	fi
	kill -TERM "$booted"
	wait "$booted"
done
boot "$smoke/mds-server.log" mds-server
scrape "$smoke/mds-server.log"
kill -TERM "$booted"
wait "$booted"

# CHECK_FUZZTIME extends the per-target fuzz budget (e.g. the nightly CI
# run passes 60s); the default keeps interactive runs quick.
fuzztime=${CHECK_FUZZTIME:-10s}
echo "== fuzz smoke ($fuzztime per target) =="
for target in \
	FuzzParse:./internal/rsl \
	FuzzEvalValue:./internal/rsl \
	FuzzAttrEqual:./internal/rsl \
	FuzzGlobMatch:./internal/ldif \
	FuzzGlobMatch:./internal/core \
	FuzzInfoAnswer:./internal/core \
	FuzzFrameRoundTrip:./internal/wire \
	FuzzFrameDecode:./internal/wire \
	FuzzWirePrefix:./internal/wire \
	FuzzRejectFrameDecode:./internal/wire \
	FuzzSessionFrames:./internal/session \
	FuzzFollowerStream:./internal/cluster \
	FuzzParseXRSL:./internal/xrsl \
	FuzzDecodeSinglePass:./internal/xrsl \
	FuzzParseFilter:./internal/mds \
	FuzzGIISSplice:./internal/mds \
	FuzzSearchRequestCodec:./internal/mds \
	FuzzLDIFSplit:./internal/ldif \
	FuzzJournalOpen:./internal/journal \
	FuzzReplay:./internal/logging \
	FuzzSnapshotRestore:./internal/bytecache \
	FuzzVerifyChain:./internal/gsi \
	FuzzHandshakeCodec:./internal/gsi \
	FuzzStatusReplyCodec:./internal/gram; do
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
