#!/usr/bin/env bash
# CI gate: static checks, full build, race-enabled tests, and a one-shot
# benchmark smoke pass so the ablation benchmarks can never silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt needed on:"
  echo "$unformatted"
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== benchmark module build + vet (no run) =="
# benchmark/ is its own module, so the root ./... patterns never compile
# it: without this an API change in dist or controlplane breaks the
# pipeline's benchmark and no gate notices.
go -C benchmark build ./...
go -C benchmark vet ./...

echo "== one dist.Config convention =="
# The sentinel translation layer ("0 means default, negative disables")
# is gone from the runtime; it must not come back.
if grep -n -e 'disabledOr' -e 'negative disables' $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: the second Config convention is back in internal/dist"
  exit 1
fi
# Every exported dist.Config field is a spiced flag, a hook (FS, Dial,
# Metrics, Events) or one of three named test seams (LeaseTTL and the
# two hedge knobs); a knob only tests set is a constant.
go test -count=1 -run '^TestDistFlagDefaults$' ./cmd/spiced
# One hedge trigger: a lease's progress rate against the fleet median.
# Stall hedging and its HedgeStall knob ran only under tests and were
# deleted; they must not come back. -w, because "stalled" is inside
# "installed".
if grep -n -w -e 'HedgeStall' -e 'stalled' $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: stall hedging is back in internal/dist"
  exit 1
fi

echo "== one way for an idle worker to learn about work =="
# Idle polls are parked and woken (conn.go, coordinator.go); the poll
# hints that used to pace an idle fleet — the fleet-size poll budget and
# the short hints before the first submission — must not come back
# beside the park.
if grep -n -E -e 'idlePollBudget' -e 'campSeq == 0' $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: an idle-poll hint is back in internal/dist"
  exit 1
fi

echo "== one reader, one reply path per worker connection =="
# The protocol is lock-step, so a connection has at most one reply
# outstanding and serveConn writes it itself under the write deadline.
# The send queue, its writer goroutine, slow-consumer eviction, lease
# re-attach and heartbeat coalescing were measured idle and deleted; they
# must not come back.
if grep -n -E -e 'sendQ' -e 'evicted' -e 'reattached' -e 'coalesce' -e 'raiseMax' \
  $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: per-connection reply machinery is back in internal/dist"
  exit 1
fi
serve_body=$(awk '/^func \(co \*Coordinator\) serveConn\(/,/^}/' internal/dist/conn.go)
if [ -z "$serve_body" ]; then
  echo "FAIL: serveConn not found in internal/dist/conn.go"
  exit 1
fi
if echo "$serve_body" | grep -n -E '^[[:space:]]*go[[:space:]]'; then
  echo "FAIL: serveConn starts a goroutine; the reader writes its own replies"
  exit 1
fi

echo "== admission valves: only the ones traffic reaches =="
# The per-tenant rate limiter, the queue-depth cap, the -backfill switch
# and the token-bucket retry budget were set by no benchmark workload,
# binary default, example or chaos gate, and were deleted; they must not
# come back. (internal/grid's simulated backfill queues are another
# mechanism and stay.)
if grep -n -E 'TenantRPS|TenantBurst|MaxQueueDepth|ErrRateLimited|RetryBudget|NewBudget|budgetStretches' \
  $(find internal/controlplane internal/dist internal/backoff cmd -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: a deleted admission valve is back"
  exit 1
fi
if grep -n -E 'Backfill|backfill' \
  $(find internal/controlplane cmd/spiced -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: the lease-path backfill switch is back"
  exit 1
fi

echo "== fair share charges pull work =="
# The ledger, the replay re-charge, the dispatch extra and the lease-path
# load all count the simulated ns of a campaign's pulls — the unit the
# simulator charges — and the cost of a pull is defined once, in
# campaign.Spec.PullNs. Counting jobs charged a 0.1 ns probe pull like a
# 0.8 ns production pull, and a quota counted per campaign let a tenant
# past MaxRunning through its second campaign.
if grep -n -F 'len(spec.Kappas) * len(spec.Velocities)' \
  $(find internal/controlplane -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: the control plane charges job counts again"
  exit 1
fi
if grep -n -F 'float64(v.Leased)' $(find internal/controlplane -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: the lease scheduler ranks on lease counts again"
  exit 1
fi
pull_cost=$(grep -n -F 'Distance / c.VAns' \
  $(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/') || true)
if [ "$(echo "$pull_cost" | grep -c 'PullNs')" -ne 1 ] || [ "$(echo "$pull_cost" | grep -c .)" -ne 1 ]; then
  echo "$pull_cost"
  echo "FAIL: the cost of a pull is computed outside campaign.Spec.PullNs"
  exit 1
fi

echo "== one scheduler, one ledger =="
# An accepted campaign goes straight to the coordinator, and the lease
# path ranks its jobs against the one grid.Policy ledger. The second
# scheduler that ranked queued campaigns behind -max-active (which no
# workload set), the ledger copy it forced, and the fsynced start record
# replay discarded were deleted; they must not come back.
if grep -n -E 'MaxActive|max-active|dispatchLocked|nextQueuedLocked|usageSnap' \
  $(find internal/controlplane cmd examples -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: the queued-campaign scheduler or its ledger copy is back"
  exit 1
fi
cp_src=$(find internal/controlplane -name '*.go' ! -name '*_test.go')
ranks=$(cat $cp_src | grep -c -F '.Rank(' || true)
if [ "$ranks" -ne 1 ]; then
  echo "FAIL: non-test controlplane calls Rank $ranks times, want 1 (the lease scheduler)"
  exit 1
fi
if grep -n -E 'T: *qStart' $cp_src; then
  echo "FAIL: the control plane journals start records again"
  exit 1
fi

echo "== one durable log per served campaign =="
# The coordinator's journal is the only durable record of a served
# campaign: its campaign record is fsynced before the 202, its cancel
# record before the cancel is acknowledged, and a job out of attempts
# records the campaign's failure. The control plane's queue journal, its
# no-op prober and its second degraded-storage policy were deleted (an
# older server's queue.log is only imported, read-only), and with them
# the dist workarounds the second log needed: the map of cancels that
# overtook their install and the re-journaling of campaign records lost
# to a degraded spell. They must not come back.
if grep -n -E 'wal\.Open|\.Append\(|qNoop|probeStorage|StorageProbe' \
  $(find internal/controlplane -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: the control plane writes a log of its own again"
  exit 1
fi
if grep -n -E 'canceled +map|journaled' $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: a second-log workaround is back in internal/dist"
  exit 1
fi

echo "== lease table + site health: plain data, one grant =="
# The lease table and site health take the time as an argument and touch
# no clock, lock, socket, event log or journal — that is what lets a
# simulation drive them — and a lease is created in exactly one place.
if grep -n -E -e 'time\.(Now|Since)' -e '\b(sync|net|obs)\.' -e 'journal' -e 'co\.mu' \
  internal/dist/leases.go internal/dist/site.go; then
  echo "FAIL: leases.go / site.go reach outside plain data"
  exit 1
fi
grants=$(cat $(ls internal/dist/*.go | grep -v '_test\.go$') | grep -c '&lease{')
if [ "$grants" -ne 1 ]; then
  echo "FAIL: $grants places build a lease in internal/dist, want 1 (leaseTable.grant)"
  exit 1
fi
# Their unit tests are socket- and sleep-free, so 20 race-enabled rounds
# cost under a second: the flake detector the TCP tests cannot be.
go test -race -count=20 \
  -run 'TestLeaseTable|TestSite|TestBreakerStateMachine|TestFleetMedianRate|TestStragglingPredicate' \
  ./internal/dist

echo "== internal/wire owns the wire: one handshake, one payload-form rule =="
# dist books the counters and events of a connection; reading or writing
# a hello or grant line, building a codec and choosing between delta,
# compressed and plain are wire.Accept, wire.Open and Session.Pack, and
# nowhere else.
if grep -n -E -e 'wire\.(NewCodec|Delta|Compress|JSONPayload)\(' -e 'msgHello' -e "ReadBytes\('\\n'\)" \
  $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: internal/dist re-implements part of the wire protocol"
  exit 1
fi

echo "== one wire protocol =="
# Every peer speaks v1 with delta checkpoints and compression. The v0
# JSON-lines codec, version negotiation, the session-downgrade path and
# the three transport knobs that selected between them were set by no
# workload, binary default or example and were deleted; they must not
# come back.
if grep -n -E 'WireVersion|DeltaCheckpoints|jsonCodec|Negotiate|Downgrad|Carries\(|wire\.V0|no-delta|no-compress' \
  $(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/'); then
  echo "FAIL: a second wire protocol or its knobs are back"
  exit 1
fi

echo "== one pull path =="
# Every pull runs on its own engine through campaign.ExecutePull. The
# -batch ensemble mode and the static-substrate neighbor grid under it
# (and under the worker's grid cache) were reachable from no shipped
# system, since every SystemConfig builds an open box with no fixed
# atoms, and were deleted; they must not come back. md.Batch is now N
# engines run side by side, each engine's own Run on its own goroutine,
# kept only for the benchmark's batch metric: its replica-strided
# re-backing, shared pair-parameter tables, adoption guard and per-step
# worker pool were deleted and must not come back either.
if grep -n -E 'StaticGrid|SubstrateShare|AttachSubstrate|SetMobileIndex|ExecuteEnsemble|runBatched|InstrumentBatch' \
  $(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/'); then
  echo "FAIL: the batched-ensemble pull path or its static substrate is back"
  exit 1
fi
if grep -n -E 'posBase|velBase|forceBase|runStepWorker|float64sEqual|\badopted\b' \
  $(git ls-files -co --exclude-standard -- 'internal/md/*.go' | grep -v '_test\.go$'); then
  echo "FAIL: md.Batch's SoA re-backing, table sharing, adoption guard or step pool is back"
  exit 1
fi
if grep -n -F '"batch"' $(ls cmd/spice/*.go | grep -v '_test\.go$'); then
  echo "FAIL: spice grew a -batch flag again"
  exit 1
fi

echo "== one place hosts a coordinator =="
# spiced -serve is the only process that hosts a dist.Coordinator; spice
# runs pulls in process or drives a control plane. spice -coordinator,
# its dist flags and dist.LocalRunner (which gave a local run a copy of
# the coordinator's stats surface, almost all of it constant zero) were
# deleted; they must not come back. A served pipeline prints the same
# tables and writes byte-identical work logs as a local one, and a
# re-run attaches to its campaigns through the 409's campaign ID.
if grep -n -E 'dist\.NewCoordinator|dist\.NewWorker|distFlags|"coordinator"' \
  $(ls cmd/spice/*.go | grep -v '_test\.go$'); then
  echo "FAIL: spice hosts a coordinator again"
  exit 1
fi
if grep -n -E '(^|[^.])\bLocalRunner\b|StatsSource' $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: internal/dist has a second local runner or stats source again"
  exit 1
fi
go test -race -count=1 -run 'TestServedPipelineMatchesLocal' ./cmd/spice

echo "== one way to export a metric =="
# An obs.Registry is nothing but its collectors: every series on
# /metrics is emitted at scrape time by its owner, histograms included.
# The registered counters, gauges and labeled vecs beside the
# collectors, with their own label-tuple keying, were deleted; they must
# not come back.
if grep -n -E 'CounterVec|GaugeVec|reg\.(Counter|Gauge|Histogram)\(' \
  $(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/'); then
  echo "FAIL: a registered instrument is back beside the collectors"
  exit 1
fi
if grep -n -E 'labelKey|splitKey' $(ls internal/obs/*.go | grep -v '_test\.go$'); then
  echo "FAIL: internal/obs keys label tuples again"
  exit 1
fi
# The series set (family, type, label names) the binaries serve is
# pinned: spiced -serve after a finished campaign, a rejection and a
# quota skip; a worker after its jobs; spice's local runner after a
# pull (md series only). A scrape that mixes types in one family or repeats a series is
# an error (/metrics 500), never invalid exposition; a coordinator
# registered after construction exports its histograms; the engines a
# worker builds feed spice_md_step_seconds.
go test -race -count=1 -run 'TestMetricsSeriesSet' ./cmd/spice
go test -race -count=1 \
  -run 'TestInvalidExpositionRefused|TestInvalidNamePanics|TestMultiLabelEmission|TestHistogramRendering|TestRegistryConcurrency' \
  ./internal/obs
go test -race -count=1 -run 'TestRegisterMetricsHistograms|TestNewWorkerWiresMetrics' ./internal/dist

echo "== one job history =="
# A job's history is the journal's lease records and the event log's
# lease_* events. The coordinator's per-job JobStats ledger (never
# pruned, deep-copied by every /metrics scrape) and the statsfmt table
# over it were deleted; a result finished before a restart is read from
# the journal replay (dist.ReplayedResult), never re-installed through
# RunTagged with a singleflight recovery around it. They must not come
# back. Reading such a result installs, journals, counts and emits
# nothing; a replay short of one done record yields an error.
if grep -n -E 'JobStats|jobStats' $(ls internal/dist/*.go | grep -v '_test\.go$'); then
  echo "FAIL: internal/dist keeps a per-job stats ledger again"
  exit 1
fi
if grep -n -E 'func Jobs' internal/dist/statsfmt/*.go; then
  echo "FAIL: statsfmt renders a per-job table again"
  exit 1
fi
if grep -n -E 'RunTagged\(|recovery' $(ls internal/controlplane/*.go | grep -v '_test\.go$'); then
  echo "FAIL: the control plane re-runs a finished campaign to read its result again"
  exit 1
fi
go test -race -count=1 -run 'TestResultRecoveredAfterRestart|TestReplayOlderStateDir' ./internal/controlplane
go test -race -count=1 -run 'TestReplayedResultNeedsEveryJob' ./internal/dist

echo "== one force loop =="
# An engine sums its forces on the goroutine that steps it; pulls,
# replicas and windows are what run in parallel. The intra-engine force
# pool, its sparse per-worker buffers, the parallel neighbor scan and the
# EngineWorkers pin spiced -serve needed to make a served trajectory
# match a local one were reached by no shipped system and were deleted;
# they must not come back.
if grep -n -E 'forcePool|workerBuf|pairKernelSparse|scanParallel|parallelPairThreshold|parallelScanMinAtoms|poolShared' \
  $(find internal/md internal/neighbor -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: a parallel force path is back in internal/md or internal/neighbor"
  exit 1
fi
if grep -n 'EngineWorkers' $(find cmd/spiced -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: spiced pins EngineWorkers again"
  exit 1
fi
# The nonbonded potential is the concrete forcefield.Combined, evaluated
# by one written-out loop (Combined.AddPairForces) with its constants
# hoisted. The PairPotential interface and the generic pair kernel that
# dispatched through it, which kept the per-pair call from inlining, were
# deleted; they must not come back.
if grep -n -E 'PairPotential|pairKernel\[' \
  $(find internal/md internal/forcefield -name '*.go' ! -name '*_test.go'); then
  echo "FAIL: the generic pair dispatch is back in internal/md or internal/forcefield"
  exit 1
fi

echo "== one analysis toolkit =="
# Each analysis computation has one implementation, the one something
# runs: the Fig. 3 strain profile is an analysis.Histogram, md's MSD fit
# is analysis.LinearFit, the fair-share grid.Policy ranks only the
# control plane's lease path, and estimator names are parsed where
# Estimator.String names them. internal/polymer, grid's batch scheduler,
# md's own least-squares loop, the analysis exports and the dist, md and
# imd API nothing called were deleted; they must not come back.
src=$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/')
if grep -n -F '"spice/internal/polymer"' $src; then
  echo "FAIL: something imports internal/polymer again"
  exit 1
fi
if grep -n -w -E 'ScheduleBatch|StretchProfile|CompactJournal|TornTailErr|RunWith|PackCoords|CoordsFinite|parseEstimator' $src; then
  echo "FAIL: a deleted second implementation or uncalled API is back"
  exit 1
fi
if grep -n -F '"spice/internal/' $(ls internal/analysis/*.go | grep -v '_test\.go$'); then
  echo "FAIL: internal/analysis imports another package of this module"
  exit 1
fi
if grep -n -w 'sxx' $(ls internal/md/*.go | grep -v '_test\.go$'); then
  echo "FAIL: internal/md fits its own least squares again"
  exit 1
fi

echo "== one implementation per paper-model idea =="
# Fig. 2 steers over the TCP bridge after a registry lookup, so
# RemoteSteerer is the one steering client; campaign.Simulate is the
# zero-failure run of the one schedule loop, and a retry that avoids the
# machines that killed it is placed through the site queue like every
# other job (JobConstraint.Exclude); CoAllocate and the lightpath
# co-scheduler share one fixed-point co-reservation loop; ScanRecords
# decodes through RecordReader; neighbor.List has one pair-list builder,
# the i-major Verlet scan over open boundaries (no cell grid, no periodic
# box, no minimum image); md steps one integrator, BAOAB Langevin (zero
# friction stands in for velocity Verlet, so there is no Integrator
# interface and no NVE switch); trace reads one engine-image layout,
# SPCKP2. The second copies and the leaf API nothing reached were
# deleted; they must not come back.
src=$(git ls-files -co --exclude-standard -- '*.go' | grep -v -e '_test\.go$' -e '^benchmark/')
if grep -n -w -E 'NewSteerer|submitExcluding|SubmitAll|Deregister|ByKind|Dialects|ScaleInPlace|Masses|AtomsOfKind|SevenFold|SupportsUDP|Degrees|Radians|SplitN|ExpFloat64|LogNormal|Lerp|MinImage|MinImageWrapped|cellOf|scanGrid|wrapCell' $src ||
  grep -n -E 'type Steerer\b|\bScanFile\(|func \(c \*Client\) Detach|\bvec\.Wrap\(' $src ||
  grep -n -E 'VelocityVerlet|integrate\.Integrator\b|type Integrator interface|NVE\s+bool|SPCKP1' $src; then
  echo "FAIL: a deleted second implementation or unreached API is back"
  exit 1
fi
fed_src=$(ls internal/federation/*.go | grep -v '_test\.go$')
loops=$(cat $fed_src | grep -c 'iter := 0; iter <' || true)
books=$(cat $fed_src | grep -c '\.Reserve(' || true)
if [ "$loops" != 1 ] || [ "$books" != 1 ]; then
  echo "FAIL: internal/federation has $loops co-reservation loops booking machines in $books places, want one of each"
  exit 1
fi
# gridsim prints the same bytes on every run with the same seed (its
# per-site table once followed map order).
gs_dir=$(mktemp -d)
go build -o "$gs_dir/gridsim" ./cmd/gridsim
distinct=$(for i in 1 2 3 4 5 6 7 8 9 10; do "$gs_dir/gridsim" | cksum; done | sort -u | wc -l)
rm -rf "$gs_dir"
if [ "$distinct" != 1 ]; then
  echo "FAIL: 10 gridsim runs printed $distinct distinct outputs, want 1"
  exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== dist multi-process integration + obs smoke (-race) =="
# Real coordinator + spiced worker processes: one is frozen mid-job so
# its lease expires and the job resumes from a streamed checkpoint on
# another process; the merged PMF must be bit-identical to a local run.
# The observability surface is smoke-checked in the same run: spiced's
# -obs-addr debug server must answer /metrics, /healthz and
# /debug/pprof/, and the coordinator's scraped counters must equal its
# final Stats exactly.
go test -race -run 'TestEndToEndWorkerProcesses' -count=1 -v ./internal/dist

echo "== dist chaos recovery (-race) =="
# Crash-safety e2e: a spiced -serve -state process holding a priming
# sweep's submitted campaigns is SIGKILLed mid-campaign and restarted in
# process over the same state directory while one worker is partitioned
# and another retransmits a duplicate result; the recovered PMF must be
# bit-identical and no spooled job may restart from step 0.
go test -race -run 'TestChaosCoordinatorKillRecovery' -count=1 -v ./internal/dist

echo "== dist slow-site speculation (-race) =="
# Federation-resilience e2e: one site is throttled ~10x behind a shaped
# (latency + bandwidth-capped) link while healthy workers run free; the
# coordinator must hedge the straggling job onto the healthy site, the
# hedge must win, the slow site's breaker must record the trip, and the
# merged PMF must stay bit-identical to an unhindered run. The test's
# hard timeout doubles as the no-read-blocks-past-deadline check, and
# its obs assertions pin /metrics to the final Stats snapshot and the
# event log's per-name counts to the same numbers.
go test -race -timeout 180s -run 'TestChaosSlowSiteSpeculation' -count=1 -v ./internal/dist

echo "== worker-storm overload chaos (-race) =="
# Overload-robustness e2e: a 500-worker in-process fleet floods the
# coordinator, a netsim blackhole severs every connection at once, and
# the thundering-herd reconnect must land jittered (decorrelated
# per-worker backoff), lose no accepted job, keep the merged PMF
# bit-identical to a LocalRunner baseline, and drain back to the
# goroutine baseline after Close.
go test -race -timeout 300s -run 'TestChaosWorkerStorm' -count=1 -v ./internal/dist

echo "== overload shedding drills (-race) =="
# Backpressure unit gates. Coordinator: a peer that stops reading its
# replies is cut off at the write deadline while other connections are
# served, and its job runs again on a live worker (20 race-enabled
# rounds); the in-flight cap sheds polls on a lock-free path (proved by
# answering while the coordinator mutex is held) and parked polls never
# count against it; a wake answers no more parked polls than there are
# jobs. Control plane: the
# HTTP concurrency limiter sheds with 503 + Retry-After, the client
# retries only refusals that carry the header and at most RetryMax
# times, and a success restarts its backoff. (New work refused while the
# disk is stuck, and admitted work finishing once it recovers, is the
# disk-fault gate's TestStorageDegradedHTTP503AndRecovery.)
go test -race -count=1 \
  -run 'TestInflightShedOverLimit|TestParkedPollsNotInflight|TestWakeAnswersOnlyRunnable|TestCoordinatorCloseMidCheckpointStream' \
  -v ./internal/dist
go test -race -count=20 -run 'TestNonDrainingPeerDisconnects|TestSlowConsumerEvictionAndLeaseReattach' ./internal/dist
go test -race -count=1 \
  -run 'TestHTTPConcurrencyShed|TestClientRetry|TestClientBackoffResetsAfterSuccess' \
  -v ./internal/controlplane

echo "== control plane multi-tenant chaos (-race) =="
# Control-plane e2e: a real spiced -serve process takes two tenants'
# campaigns over HTTP (both running, no worker to lease them to),
# rejects an over-quota submission, and is SIGKILLed twice — mid-queue
# and mid-replay. The restarts must replay every accepted campaign from
# the coordinator's fsynced journal, keep enforcing quotas against the
# replayed campaigns, and finish both campaigns bit-identical to
# in-process LocalRunner baselines.
go test -race -run 'TestChaosKillControlPlaneMidQueue' -count=1 -v ./internal/controlplane

echo "== disk-fault chaos: one write-ahead log (-race) =="
# Durable-storage gate. internal/wal is the log the coordinator's journal
# runs on, so its suite is the protocol's: a fault injected at EVERY
# mutating filesystem operation of a compaction and of a mixed
# synced/unsynced append sequence that crosses the compaction threshold
# (as a transient error and as a crash), a torn tail at every byte
# offset, the refused-append-leaves-no-trace and stale-temp-file
# regressions. dist then runs the same compaction sweep over its
# production fold and pins its on-disk format byte-for-byte against files
# written before the extraction; the journal records a campaign's
# acceptance, cancel and failure and installs nothing it could not make
# durable; the control plane's import still reads the golden queue.log
# of the servers that wrote one, and a state directory such a server
# left mid-campaign replays to the same states and bit-identical
# results. The end-to-end drills: the disk wedged with persistent ENOSPC
# mid-service must make the coordinator answer finished workers with
# retry (never ack-and-drop a result) and the control plane 503 with
# Retry-After (never acknowledge a submission journal.log does not
# hold), both must recover when the faults clear, and a workload that
# once grew the journal monotonically must stay near -compact-bytes.
go test -race -count=1 ./internal/wal
go test -race -count=1 \
  -run 'TestCompactionKillPointSweep|TestJournalFormatFrozen|TestStaleSpoolTmpSwept|TestCoordinatorCompactionBoundedLiveCampaign|TestStorageDegradedRecovery|TestCampaignRecordsReplay|TestQueueFormatFrozen|TestReplayOlderStateDir|TestQueueSubmitAckOrdering|TestRefusedSubmitLeavesNoTrace|TestStorageDegradedHTTP503AndRecovery' \
  -v ./internal/dist ./internal/controlplane

echo "== decoder fuzz smoke (10s each) =="
# Native fuzzing of everything a disk can hand the journals: arbitrary
# bytes as snapshot + log through wal replay (never panics, never
# applies a sequence twice, reopen after truncation is idempotent), and
# arbitrary records through each production fold (never panics, the
# snapshot of the result replays to the result). And of everything a
# peer can send: an arbitrary hello line plus trailing bytes through
# wire.Accept (replies one JSON line, and every grant is the one v1 grant),
# arbitrary v1 frames (parse or fail, and re-encode to the same
# message), arbitrary compressed/delta payloads with and without a base,
# an arbitrary checkpoint through trace.ReadCheckpoint (a remote
# steerer's; no allocation beyond the bytes supplied, and what decodes
# re-encodes stably), and arbitrary framed streams through the record
# scan, which keeps what the streaming reader reads before the first bad
# frame and splits the input into clean prefix and torn tail.
# And of the system payload a worker receives from its coordinator:
# arbitrary bytes through core.BuildFromJSON (decode, Validate, and the
# small accepted configs must build). And of what an IMD peer can send:
# arbitrary bytes through imd.Read (decode or error, never panic; what
# decodes re-encodes to the bytes it came from).
# Minimization is capped: its 60 s default would spend the whole smoke
# shrinking the first interesting input instead of generating new ones.
for target in FuzzReplay:wal FuzzApply:dist FuzzApply:controlplane \
  FuzzAccept:wire FuzzFrame:wire FuzzResolve:wire \
  FuzzReadCheckpoint:trace FuzzScanRecords:trace FuzzBuildFromJSON:core \
  FuzzRead:imd; do
  go test -run '^$' -fuzz "${target%%:*}" -fuzztime 10s -fuzzminimizetime 20x "./internal/${target##*:}"
done

echo "== control plane quota + restart unit gates (-race) =="
# Two tenants over the in-process HTTP API with quota rejection and
# bit-identity, replay of every accepted campaign after a restart, a
# pre-restart result read from the journal replay by concurrent callers
# without installing, journaling or counting anything, the conservative lease
# walk that stops at a quota-blocked campaign, MaxRunning counted per
# tenant, and the fair-share ledger in pull work: the simulator's charge
# over CPUHoursPerNs, exported as spice_cp_tenant_usage. Submit hands
# every campaign straight to the coordinator with its campaign record as
# the one durable trace, the 202 reports the real state, a campaign is
# queued (and cancelable as such) only between a replay and Start, a
# cancel right after Submit is never lost, an unrunnable spec and an
# oversized body are 400s that never reach journal.log, and the client
# hands back the server's sentinels (400, both 409s), a duplicate's
# campaign ID with its 409, and escapes the tenant it filters on.
go test -race -run 'TestClientDuplicateSubmitReturnsID|TestTwoTenantsOverHTTPBitIdentical|TestQueueJournalLifecycleReplay|TestRestartReplaysAcceptedCampaigns|TestResultRecoveredAfterRestart|TestLeaseSchedulerStopsAtQuotaBlocked|TestLeaseSchedulerQuotaCountsTenantLeases|TestFairShareChargesPullWork|TestLiveChargeMatchesSimulator|TestTenantUsageGauge|TestSubmitGoesStraightToCoordinator|TestSubmitReportsRealState|TestSubmitRejectsUnrunnableSpec|TestSubmitBodyBounded|TestCancelQueuedCampaign|TestCancelRightAfterSubmit|TestClientKeepsServerSentinels' -count=1 ./internal/controlplane

echo "== md determinism (GOMAXPROCS=4, -race) =="
# With real parallelism and the race detector on: md.Batch, N engines
# run side by side, must step replicas bit-identically to solo engines
# (a walled system joining the batch mid-trajectory, clone-into-batch
# restore, StepN allocations that do not grow with the step count,
# refusal of an empty batch, a nil engine, a mismatched atom count and
# an engine listed twice); Step must run safely against Checkpoint and
# Frame from other goroutines, as IMD drives them; a trajectory must not
# depend on EngineWorkers; and the golden digests pin the trajectories
# of the shipped systems across commits (the step kernel's skips and
# hoists must leave every float unchanged).
GOMAXPROCS=4 go test -race -count=1 \
  -run 'TestBatchBitIdenticalTrajectories|TestCloneIntoBatchRestore|TestBatchStepZeroAllocs|TestNewBatchRejects|TestConcurrentStepCheckpointFrame|TestTrajectoryIndependentOfEngineWorkers|TestGoldenTrajectories' \
  ./internal/md ./internal/core

echo "== wire protocol gates (-race) =="
# Transport gates. The full v1 transport must merge bit-identical to
# LocalRunner; a hand-rolled v1 client pins the delta NeedFull healing
# handshake, the fold-before-spool image and the refusal of an
# unversioned hello; a malformed checkpoint is never stored and an
# undecodable resume fails its attempt, not the worker; and delta folds
# must survive both worker loss and a SIGKILL-shaped coordinator crash
# with journal recovery.
go test -race -count=1 \
  -run 'TestWireMatrixBitIdentical|TestWireV1ClientFoldAndNeedFull|TestMalformedCheckpointRejected|TestUndecodableResumeFailsJob|TestRefusedGrantNotRedialed|TestDeltaFoldResumeOnWorkerLoss|TestDeltaFoldCrashRestart' \
  -v ./internal/dist

echo "== 1000-worker wire load gate (-race) =="
# Transport acceptance: at 1000 loopback workers the v1 binary/delta
# transport must move >=10x fewer checkpoint bytes per job than the raw
# serialized documents. Full numbers, with the retired JSON-lines
# baseline that shipped them 1:1, live in BENCH_6.json.
go test -race -run '^$' -bench 'Ablation_WireLoad' -benchtime 1x -timeout 20m . |
  awk '{ print }
       /v1-binary-delta/ { for (i = 1; i < NF; i++)
         if ($(i+1) == "ckpt_reduction_x") rx = $i }
       END {
         if (rx + 0 < 10) { print "FAIL: checkpoint byte reduction " rx "x < 10x"; exit 1 }
         print "wire gate OK: " rx "x checkpoint byte reduction at 1000 workers" }'

echo "== bench smoke (benchtime=1x) =="
go test -run '^$' -bench 'Ablation' -benchtime 1x -benchmem .

echo "== end-to-end benchmark, one run =="
# The benchmark the pipeline judges every change by, run once so a
# change that breaks it (a renamed flag, a served PMF that differs from
# LocalRunner, a counter that stopped being measured) fails here and not
# after the merge. Only facts that do not depend on the host are
# asserted: timings are the paired comparison's business
# (benchmark/README.md), not CI's. The five *_share metrics partition
# the fleet's time on each campaign, so they must sum to 1.
bench_json=$(bash benchmark/run.sh --workload finegrain --trace 1 --seconds 5 -allow-oversubscribed | tail -n 1)
echo "$bench_json" | python3 -c '
import json, sys
r = json.load(sys.stdin)
m = {k: v["value"] for k, v in r["metrics"].items()}
shares = ["controlplane.head_share", "core.build_share", "smd.pull_share",
          "dist.idle_share", "controlplane.tail_share"]
checks = [
    ("correct", r["correct"] is True),
    ("failed == 0", r["failed"] == 0),
    ("dist.journal_fsyncs_per_pull within 1 +- 0.05", abs(m["dist.journal_fsyncs_per_pull"] - 1) <= 0.05),
    ("controlplane.queue_fsyncs_per_campaign == 0", m["controlplane.queue_fsyncs_per_campaign"] == 0),
    ("md.allocs_per_step == 0", m["md.allocs_per_step"] == 0),
    ("dist.requests_shed == 0", m["dist.requests_shed"] == 0),
    ("share partition sums to 1 +- 0.01", abs(sum(m.get(k, float("nan")) for k in shares) - 1) <= 0.01),
]
bad = [name for name, ok in checks if not ok]
for name in bad:
    print("FAIL: benchmark:", name)
if bad:
    sys.exit(1)
print("benchmark gate OK: %d campaigns, %d failed" % (r["attempted"], r["failed"]))
'
# Two tenants on real processes: every probe and bulk PMF must be
# bit-identical to LocalRunner whatever order fair share leased them in.
mt_json=$(bash benchmark/run.sh --workload multitenant --trace 0 --seconds 5 -allow-oversubscribed | tail -n 1)
echo "$mt_json" | python3 -c '
import json, sys
r = json.load(sys.stdin)
if r["correct"] is not True or r["failed"] != 0:
    print("FAIL: multitenant benchmark: correct=%s failed=%s" % (r["correct"], r["failed"]))
    sys.exit(1)
print("multitenant gate OK: %d campaigns, %d failed" % (r["attempted"], r["failed"]))
'

echo "== non-test Go lines per package =="
scripts/loc.sh

echo "CI OK"
