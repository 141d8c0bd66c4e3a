#!/usr/bin/env bash
# Everything CI runs, runnable by hand:
#
#   scripts/ci.sh quick   gofmt, vet, build, short tests, the benchmark module
#   scripts/ci.sh full    what .github/workflows/ci.yml runs, in order:
#                         the full test suite, then race, fuzz and smokes
#
# Every file a step writes (binaries, traces, BENCH json) goes to a temp
# directory that is removed on exit, along with any server left running.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

tmp="$(mktemp -d)"
pids=()
cleanup() {
  for p in ${pids[@]+"${pids[@]}"}; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

step() { echo; echo "== $*"; }

# The benchmark is a nested module the root ./... patterns skip; it
# calls exported internals (core, pgas, wire, fabric), so build, vet and
# test it here or an API change breaks benchmark/run.sh unnoticed.
benchmark_module() {
  step "benchmark module"
  (cd benchmark && go vet ./... && go test ./...)
}

quick() {
  step "gofmt, vet, build, short tests"
  test -z "$(gofmt -l .)"
  go vet ./...
  go build ./...
  go test -short ./...
  benchmark_module
}

race_and_guards() {
  # The whole tree under the race detector (2m36s on the 2-vCPU
  # reference box, 114 s of it internal/bench).
  step "race: whole tree"
  go test -race -short ./...
  # The ownership rule (DESIGN.md §4.12): the resolver adds to an Alloc
  # cell without an atomic, so lost updates and run-boundary slips get
  # five tries under the race detector.
  go test -race -count=5 -run 'OwnerIncExact|ApplierRuns' ./internal/core
  # Who runs a step's work (DESIGN.md §4.1, §4.16): the caller-runs
  # launch and its panic path, both forms of the host wait, the flush
  # that wakes nobody, the device threads' hand-off, park and stop, and
  # a verb's typed error unwinding Step on every model, five tries each
  # under the race detector. Then the fine-steps shape itself: 2000
  # one-WG steps on two nodes, exact sum.
  go test -race -count=5 -run \
    'OneWGLaunchRunsOnCaller|ParkFromCallerWorker|KernelPanicReachesCaller|LaunchCoversGrid|ParkWakeStress|WaitManyWaiters|WaitAllocatesNothing|TimeoutFlushWakesNobody|ParkedDeviceThread|CloseStopsDeviceThreads|WaitUntilChain|UnrecoveredVerbPanic' \
    ./internal/simt ./internal/park ./internal/agg ./internal/core ./internal/models
  go test -race -run FineStepsSmoke ./internal/core
  # Quiescence (DESIGN.md §4.14, §4.16): fabric.Observe's read order on
  # a bare ledger; then a quiet observation torn by an AM follow-up
  # staged mid-read, by a packet departing between the staged and
  # departed reads, or by a pump holding one between the outbox and the
  # fabric must not end a Step, and a frame the loopback decoder drops
  # must still let the ledger balance — the interleavings forced, then
  # mer's AM-driven contig walk on every model, which found the first
  # and the third under load.
  go test -race -count=200 -run 'ObserveReadOrder' ./internal/fabric
  go test -race -count=200 -run 'QuiesceWaitsOutCascade|QuiesceSeesPacket|QuiesceRetiresDroppedFrame' ./internal/core
  go test -race -count=15 -run MerPhase2AcrossModels ./internal/models
  # The TCP step vote and host collectives (DESIGN.md §4.5): a cascade
  # between rounds holds the vote, a next ballot taken before the
  # round's last one is caught, no finished vote or collective is
  # retained, refused ballots poison the connection, 200 steps on 2 and
  # 4 processes stay aligned, and the writer puts each frame in one
  # Write (the fault injector's unit), twenty tries each.
  go test -race -count=20 -run 'Vote|Tally|Collective|OneFramePerWrite' ./internal/transport
  # The unwind contract (DESIGN.md §4.6): every run-time error type ×
  # model × raise site × fabric comes back typed to the caller, five
  # tries under the race detector.
  go test -race -count=5 -run UnwindTable .
  go test -bench=. -benchtime=20ms -run=NONE ./internal/queue/ ./internal/wire/ ./internal/simt/ ./internal/fabric/ ./internal/core/ ./internal/pgas/ ./internal/transport/
}

# Fuzz smokes, 5 s each: every byte decoder that reads from a socket, a
# flag or the checkpoint store (frame reader, coordinator dispatch, the
# wire record walkers, the applier that turns records into memory
# operations, the checkpoint payload codec, the fault-spec parser), plus
# the wavefront grouping against its O(width^2) oracle. go test fuzzes
# one target per run; the seed corpora already run as unit tests above.
fuzz_smokes() {
  step "fuzz smokes"
  local t
  for t in \
    FuzzReadFrame:transport FuzzCoordDispatch:transport \
    FuzzWFAggregate:simt FuzzApplierWalk:core \
    FuzzDecode:wire FuzzRecordWalk:wire FuzzCheckBuf:wire \
    FuzzDecodeU64s:ckpt FuzzFaultParse:transport/fault; do
    go test -run=NONE -fuzz="^${t%%:*}\$" -fuzztime=5s "./internal/${t#*:}/"
  done
}

hot_path_guards() {
  # The pooled packet lifecycle must stay allocation-free, and the Fig6
  # queue benchmark must keep running end to end (one iteration;
  # throughput is tracked out of band). A TCP frame read, the send
  # window's admit/ack cycle, a warm 64-WG launch (and one whose WG
  # parks) and a warm Step at 1, 2 and 4 resolver shards and at 64 WGs
  # per node allocate nothing, and the step ledger stays within its
  # window however many steps run.
  step "hot-path guards"
  go test -bench=Fig6 -benchtime=1x -run=NONE .
  go test -bench='FlushRoundTrip|RepackDrain|ArchiveRoundTrip' -benchmem -benchtime=100x -run=NONE ./internal/agg/
  go test -count=1 -run='^(TestReadFrameZeroAllocs|TestSendWindowZeroAllocs)$' ./internal/transport/
  go test -count=1 -run='^(TestOneWGLaunchRunsOnCaller|TestWarmLaunchAllocs)$' ./internal/simt/
  go test -count=1 -run='^(TestWarmStepAllocs|TestStepLedgerBounded|TestStepNumbersPastWindow)$' ./internal/core/
}

cluster_smokes() {
  step "bench and cluster smokes"
  # Machine-readable results, diffed against the checked-in
  # BENCH_PR3.json (reduced scale keeps CI fast): the modeled GB/s and
  # atomics/WI columns must match it exactly; host GB/s is only printed.
  go run ./cmd/gravel-bench -exp fig6 -scale 0.25 -json "$tmp/BENCH_PR3.json" && cat "$tmp/BENCH_PR3.json"
  q='.experiments[] | select(.name == "fig6") | .rows[] | [.[0], .[1], .[3]]'
  diff <(jq -c "$q" BENCH_PR3.json) <(jq -c "$q" "$tmp/BENCH_PR3.json")
  go run ./cmd/gravel-node -smoke
  # -phases renders the per-name step sums: one gups row, one step.
  go run ./cmd/gravel-apps -app gups -nodes 2 -scale 0.05 -phases | grep -E '^  gups +1 +[0-9.]+ +[0-9.]+ +[0-9.]+$'
  # Distributed-baseline smoke: a rival model from the shared harness
  # registry as a real 3-node TCP cluster, under the race detector; the
  # reduced checksum must match the single-process run bit-for-bit.
  go run -race ./cmd/gravel-node -smoke -nodes 3 -model=coprocessor -app=gups
  # Resolver-shard smoke: the same cluster with 4 resolver banks per
  # node. The smoke mode checks the distributed checksum against the
  # in-process fabric at the same shard count, and the runs above pin
  # the serial (shards=1) value — so a sharded divergence fails one of
  # the two. The resolver sweep then runs at reduced scale as a smoke.
  go run -race ./cmd/gravel-node -smoke -nodes 3 -model=coprocessor -app=gups -resolver-shards=4
  go run ./cmd/gravel-bench -exp resolver -scale 0.25
  # PGAS-verb smoke: the two signal-verb apps as real 3-node TCP
  # clusters under the race detector, at 4 resolver banks — the
  # configuration where signal ordering and the bank-0 AM serialization
  # actually fan out. The pgas sweep then runs at reduced scale.
  go run -race ./cmd/gravel-node -smoke -nodes 3 -model=coprocessor -app=bfs-dir -resolver-shards=4
  go run -race ./cmd/gravel-node -smoke -nodes 3 -model=coprocessor -app=histogram -resolver-shards=4
  go run ./cmd/gravel-bench -exp pgas -scale 0.25
  # Archive-aggregation smoke: the gravel-archive model (DESIGN.md
  # §4.14) as a real 3-node TCP cluster at 4 resolver banks under the
  # race detector, plus a chaos-matrix pass under the same model (gups
  # is elastic, so the heal-worker iteration runs too). The aggstrategy
  # shootout then runs at reduced scale.
  go run -race ./cmd/gravel-node -smoke -nodes 3 -model=gravel-archive -app=gups -resolver-shards=4
  go run ./cmd/gravel-node -chaos -seed 4 -duration 5s -nodes 3 -model=gravel-archive
  go run ./cmd/gravel-bench -exp aggstrategy -scale 0.25
  # Hosted-only smoke: a process holds no device, queue, aggregator or
  # array window for another process's node, and a host call on one
  # panics a typed error; a hosted node has a queue only on the queue
  # path (gravel, msg-per-lane, cpu-only, coalesced+agg). bfs-dir as a
  # real 4-node TCP cluster on the gravel model stores its source's level
  # only in the owner's process. coalesced+agg hands its per-WG lists to
  # that queue and the ticket aggregator: bfs-dir's signals over real TCP
  # at 4 resolver banks, under the race detector.
  go test -count=1 -run 'TestProcessHoldsOnlyHostedNodes|TestUnhostedNodeCallsPanicDestError|TestNodeBuildsOnlyItsSendPath' .
  go run ./cmd/gravel-node -smoke -nodes 4 -model=gravel -app=bfs-dir
  go run -race ./cmd/gravel-node -smoke -nodes 3 -model=coalesced+agg -app=bfs-dir -resolver-shards=4
  # Trace smoke: the flight recorder must produce a schema-valid,
  # monotonic JSONL trace from a real distributed run.
  go run ./cmd/gravel-node -smoke -trace "$tmp/trace.jsonl"
  go run ./cmd/gravel-node -check-trace "$tmp/trace.jsonl"
}

chaos_smokes() {
  step "chaos smokes"
  # With the observability endpoints scraped mid-run: /metrics must
  # serve Prometheus text and /healthz must answer while faults are
  # being injected.
  go build -o "$tmp/gravel-node" ./cmd/gravel-node
  "$tmp/gravel-node" -chaos -seed 1 -duration 30s -obs-addr 127.0.0.1:9463 &
  local chaos=$!
  pids+=("$chaos")
  sleep 5
  curl -sf http://127.0.0.1:9463/healthz
  curl -sf http://127.0.0.1:9463/metrics | grep -q '^gravel_trace_events_total'
  wait "$chaos"
  # Chaos-recovery smoke: SIGKILL one worker of an elastic 3-node run
  # mid-flight; the launcher must heal the run from the latest
  # checkpoint cut and finish bit-identical to the undisturbed reference
  # (the heal-worker chaos iteration enforces both). Then the live 2->4
  # scale-out sweep, which also pins bit-identity.
  go run ./cmd/gravel-node -chaos -seed 3 -duration 1s -nodes 3
  go run ./cmd/gravel-node -scaleout -json "$tmp/scaleout.json" && cat "$tmp/scaleout.json"
  # Chaos under the PGAS-verb apps: signalled puts and in-kernel waits
  # must ride out recoverable faults bit-exactly and fail fast on kills,
  # like every other app. histogram runs at 8x scale so its short run is
  # still in flight when the scheduled kills land (the harness errors on
  # a fault that misses the run).
  go run ./cmd/gravel-node -chaos -seed 2 -duration 5s -nodes 3 -app=bfs-dir
  go run ./cmd/gravel-node -chaos -seed 2 -duration 5s -nodes 3 -app=histogram -scale 8
}

# Service smoke: start gravel-server, submit two identical jobs and one
# distinct job over HTTP, assert the second identical submission is
# absorbed (deduped onto the in-flight run or served from cache if the
# first already finished), poll all to completion, verify the service
# checksum against a direct gravel-apps run of the same spec, and scrape
# /metrics off the shared listener mid-run.
service_smoke() {
  step "service smoke"
  go build -o "$tmp/gravel-server" ./cmd/gravel-server
  "$tmp/gravel-server" -listen 127.0.0.1:9464 -pool 2 &
  local server=$!
  pids+=("$server")
  sleep 1
  # No seed: both the job and the gravel-apps reference below resolve to
  # the app's default, so the specs match exactly.
  local body='{"app":"gups","model":"gravel","nodes":3,"fabric":"tcp","scale":0.05}'
  local j1 j2 j3 id1 id3 done1 done3
  j1=$(curl -sf -X POST 127.0.0.1:9464/api/v1/jobs -d "$body")
  j2=$(curl -sf -X POST 127.0.0.1:9464/api/v1/jobs -d "$body")
  j3=$(curl -sf -X POST 127.0.0.1:9464/api/v1/jobs -d \
    '{"app":"pagerank","model":"gravel","nodes":3,"fabric":"tcp","scale":0.05,"seed":8,"verts":512,"iters":2}')
  echo "$j1"; echo "$j2"; echo "$j3"
  test "$(echo "$j1" | jq -r .outcome)" = queued
  echo "$j2" | jq -e '.outcome == "deduped" or .outcome == "cached"' >/dev/null
  test "$(echo "$j3" | jq -r .outcome)" = queued
  curl -sf 127.0.0.1:9464/metrics | grep -q '^gravel_trace_events_total'
  id1=$(echo "$j1" | jq -r .job.id)
  id3=$(echo "$j3" | jq -r .job.id)
  done1=$(curl -sf "127.0.0.1:9464/api/v1/jobs/$id1?wait=120s")
  done3=$(curl -sf "127.0.0.1:9464/api/v1/jobs/$id3?wait=120s")
  test "$(echo "$done1" | jq -r .state)" = done
  test "$(echo "$done3" | jq -r .state)" = done
  # The service checksum must equal a direct single-process run.
  go run ./cmd/gravel-apps -app gups -nodes 3 -scale 0.05 -json "$tmp/direct.json"
  test "$(echo "$done1" | jq -r .result.check)" = "$(jq -r .check "$tmp/direct.json")"
  curl -sf 127.0.0.1:9464/api/v1/admin/queue | jq -e '.queue.completed >= 2' >/dev/null
  kill "$server"
}

full() {
  step "gofmt, vet, staticcheck, build, tests"
  test -z "$(gofmt -l .)"
  go vet ./...
  # The workflow installs staticcheck; a box without it (no network)
  # skips the one step that needs it.
  if command -v staticcheck >/dev/null; then staticcheck ./...; else echo "staticcheck not installed: skipped"; fi
  go build ./...
  # The whole suite, without -short: the chaos tests, the aggregator
  # wake test and the bench shape sweeps run nowhere else. quick and the
  # race step keep -short.
  go test ./...
  race_and_guards
  fuzz_smokes
  benchmark_module
  hot_path_guards
  cluster_smokes
  chaos_smokes
  service_smoke
}

case "${1:-}" in
  quick) quick ;;
  full) full ;;
  *) echo "usage: scripts/ci.sh quick|full" >&2; exit 2 ;;
esac
echo
echo "ci.sh ${1}: PASS"
