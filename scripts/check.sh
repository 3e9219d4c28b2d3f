#!/usr/bin/env bash
# Full validation suite for the hazard-eras reproduction.
# Usage: scripts/check.sh [quick|full|api|schemes|health]
#        scripts/check.sh perf [base-ref] [pairs] [METRIC@WORKLOAD]
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-quick}"

if [ "$mode" = "perf" ]; then
  # End-to-end regression gate against an earlier commit: the benchmark
  # BENCHMARK.json declares (cmd/heperf/run.sh) runs on base-ref's committed
  # tree and on this checkout, alternating which goes first in each pair,
  # then heperf compare judges every end-to-end metric under its bound and
  # this mode exits non-zero on any "worse" row. A METRIC@WORKLOAD argument
  # is the gain the change claims: compare -claim then also requires it to
  # win nine pairs in ten by more than the base side's spread, and fails
  # the mode otherwise. One pair takes about four minutes, so CI does not
  # run it.
  base_ref="${2:-HEAD~1}"
  pairs="${3:-10}"
  claim="${4:-}"
  pdir="$PWD/.bench_build/perf"
  rm -rf "$pdir"
  mkdir -p "$pdir/tree" "$pdir/base" "$pdir/change"
  # The committed files of base-ref, as a plain tree: nothing to register
  # with git, nothing to clean up if the run is interrupted.
  git archive "$(git rev-parse --verify "$base_ref^{commit}")" | tar -x -C "$pdir/tree"
  for i in $(seq -w 1 "$pairs"); do
    order="base change"
    [ $((10#$i % 2)) -eq 0 ] && order="change base"
    for side in $order; do
      echo "== pair $i/$pairs: $side =="
      if [ "$side" = base ]; then
        bash "$pdir/tree/cmd/heperf/run.sh" -seed 1 -out "$pdir/base/$i.json" > "$pdir/base/$i.log"
      else
        bash cmd/heperf/run.sh -seed 1 -out "$pdir/change/$i.json" > "$pdir/change/$i.log"
      fi
    done
  done
  echo "== heperf compare ($base_ref vs this checkout, $pairs pairs) =="
  bash cmd/heperf/run.sh compare ${claim:+-claim "$claim"} "$pdir"/base/*.json "$pdir"/change/*.json
  echo "ALL CHECKS PASSED (perf)"
  exit 0
fi

if [ "$mode" = "api" ]; then
  # Public-surface gate (CI job check-api): the smr package's lifecycle
  # contract (misuse panics) and its zero-allocation steady state, in
  # isolation and fast. What the Guard costs in time over the internal
  # handle is read from cmd/heperf's traced ledger (smr.load_ns against
  # reclaim.handle_protect_ns), not timed here.
  echo "== public API (vet) =="
  go vet ./smr/ .
  echo "== public API misuse panics (race) =="
  go test -race -count=2 -run 'TestMisusePanics|TestGuardReuseAfterAcquire|TestOperationRoundTrip' ./smr/
  echo "== public API zero-allocation gate =="
  # AllocsPerRun is meaningless under -race instrumentation, so this gate
  # runs uninstrumented.
  go test -count=1 -run 'TestAllocFreeSteadyState' -v ./smr/
  echo "ALL CHECKS PASSED (api)"
  exit 0
fi

if [ "$mode" = "schemes" ]; then
  # Next-generation scheme gate (CI job check-schemes): Hyaline and WFE
  # through their unit tests, the deterministic safety/linearizability
  # suites, the mutation kill-checks that hold their subtlest invariants,
  # and the stalled-reader robustness regression.
  echo "== hyaline + wfe unit tests (race) =="
  go test -race -count=2 ./internal/hyaline/ ./internal/wfe/
  echo "== safety oracles + linearizability (hyaline-1r, hyaline, WFE) =="
  go run ./cmd/hecheck -suite domain -scheme hyaline-1r,hyaline,WFE -seeds 8
  go run ./cmd/hecheck -suite struct -scheme hyaline-1r,hyaline,WFE -seeds 4
  echo "== mutation kill-checks (batch refcount ordering, helping-path revalidation) =="
  go run ./cmd/hecheck -mutate hyaline-early-dec -seeds 8
  go run ./cmd/hecheck -mutate wfe-skip-validate -seeds 8
  echo "== stalled-reader robustness regression (bounded vs unbounded pending) =="
  go test -race -run 'TestStalledReaderBounds' ./internal/bench/
  echo "== era accounting under helped advances =="
  go test -run 'TestRetireHelpsAnnouncedReader|TestObsEraViewIncludesHelpCell' ./internal/wfe/
  echo "== roster throughput smoke (hebench -exp schemes) =="
  go run ./cmd/hebench -exp schemes > /dev/null
  echo "ALL CHECKS PASSED (schemes)"
  exit 0
fi

if [ "$mode" = "health" ]; then
  # Lifecycle-tracing + health-monitor gate (CI job check-health): the
  # hysteresis and shutdown-hygiene unit tests, span conservation across
  # every reclaiming scheme, a live scrape proving the tracer histogram,
  # scheme-deep series and alert series are exported, an offline heanalyze
  # pass over the recorded JSONL, and the stalled-reader demo raising AND
  # clearing an era-stall alert.
  echo "== monitor hysteresis + hub shutdown + dropped counters (race) =="
  go test -race -count=2 -run 'TestMonitorHysteresis|TestHubCloseShutsDownCleanly|TestDroppedEventsSurface' ./internal/obs/
  echo "== span conservation, every reclaiming scheme, seeded schedules (race) =="
  go test -race -run 'TestSpanConservation' ./internal/bench/
  echo "== live scrape (tracer histogram, scheme-deep series, alert series) =="
  htmp=$(mktemp -d)
  trap 'rm -rf "$htmp"' EXIT
  go build -o "$htmp/hebench" ./cmd/hebench
  "$htmp/hebench" -exp stalled -dur 100ms -threads 2 \
    -trace all -monitor -metrics 127.0.0.1:0 -hold 60s \
    -sample "$htmp/health.jsonl" \
    > "$htmp/hebench.out" 2>&1 &
  hpid=$!
  haddr=""
  for _ in $(seq 1 150); do
    haddr=$(sed -n 's|^metrics: http://\([^/]*\)/metrics$|\1|p' "$htmp/hebench.out")
    [ -n "$haddr" ] && break
    sleep 0.2
  done
  [ -n "$haddr" ] || { echo "hebench never announced its metrics address"; cat "$htmp/hebench.out"; exit 1; }
  # EBR is last in the stalled roster, so its series appearing means every
  # scheme asserted below has registered its domain. Each body is captured
  # whole before it is searched: grep -q exits at its first match, and
  # under pipefail a curl still writing into the closed pipe would fail
  # the check.
  for _ in $(seq 1 300); do
    hscrape=$(curl -sf "http://$haddr/metrics" 2>/dev/null || true)
    grep -qF 'smr_retired_total{scheme="EBR"}' <<<"$hscrape" && break
    sleep 0.2
  done
  hscrape=$(curl -sf "http://$haddr/metrics")
  for series in \
    'smr_obs_dropped_total{scheme="HE"}' \
    'smr_trace_live_spans{scheme="HE"}' \
    'smr_reclaim_age_ns_bucket{scheme="HE"' \
    'smr_wfe_announce_total{scheme="WFE"}' \
    'smr_wfe_adopt_total{scheme="WFE"}' \
    'smr_hyaline_handoff_depth_max{scheme="hyaline' \
    '# TYPE smr_alerts_total counter' \
    '# TYPE smr_alert_active gauge'; do
    grep -qF "$series" <<<"$hscrape" || { echo "missing series: $series"; exit 1; }
  done
  halerts=$(curl -sf "http://$haddr/alerts.json") || { echo "/alerts.json scrape failed"; exit 1; }
  grep -q '"status"' <<<"$halerts" || { echo "/alerts.json missing status"; exit 1; }
  kill "$hpid" 2>/dev/null || true
  wait "$hpid" 2>/dev/null || true
  echo "== heanalyze offline pass over the recorded spans =="
  grep -q '"span"' "$htmp/health.jsonl" || { echo "no lifecycle spans in sampler JSONL"; exit 1; }
  go run ./cmd/heanalyze "$htmp/health.jsonl" > "$htmp/heanalyze.out"
  grep -q 'completed spans:' "$htmp/heanalyze.out" || { echo "heanalyze produced no span report"; cat "$htmp/heanalyze.out"; exit 1; }
  echo "== stalled-reader demo: era-stall alert must raise and clear =="
  go run ./examples/stalledreader > "$htmp/stalled.out"
  grep -q 'ALERT raise .*era-stall' "$htmp/stalled.out" || { echo "no era-stall raise"; cat "$htmp/stalled.out"; exit 1; }
  grep -q 'ALERT clear .*era-stall' "$htmp/stalled.out" || { echo "no era-stall clear"; cat "$htmp/stalled.out"; exit 1; }
  echo "ALL CHECKS PASSED (health)"
  exit 0
fi

echo "== build =="
go build ./...
echo "== vet =="
go vet ./...
echo "== import gate (structures written against smr alone) =="
# Every structure but the wait-free queue (a session there spans two
# domains, which one smr.Guard cannot carry) reaches the substrate only
# through smr: no non-test file of these packages may import it directly.
for pkg in list hashmap queue stack bst skiplist; do
  imports=" $(go list -f '{{join .Imports " "}}' "./internal/$pkg") "
  for banned in repro/internal/reclaim repro/internal/mem repro/internal/payload; do
    case "$imports" in
      *" $banned "*) echo "internal/$pkg imports $banned; use the smr API instead"; exit 1 ;;
    esac
  done
done
echo "== inlining gate (DESIGN.md \"What a protected hop calls\") =="
# Each pattern must match, as an extended regexp, a whole function name
# that go build -gcflags=-m reports as "can inline" in that package.
# Generic smr wrappers are reported where a structure instantiates them.
inline_gate() {
  local pkg="$1" names
  shift
  names=$(go build -gcflags=-m "$pkg" 2>&1 | sed -n 's/^.*: can inline //p')
  for fn in "$@"; do
    grep -qxE "$fn" <<<"$names" || { echo "$pkg: no longer inlinable: $fn"; exit 1; }
  done
}
inline_gate ./internal/schedtest 'Point'
inline_gate ./internal/atomicx '\(\*PaddedUint64\)\.Load'
inline_gate ./internal/reclaim '\(\*probe\)\.insVisit' '\(\*probe\)\.insLoads'
inline_gate ./internal/list 'smr\.\(\*Atomic\[.*\]\)\.Load' 'smr\.\(\*Domain\[.*\]\)\.Deref'
# A generic instantiation compiled outside mem does not inline mem.Ref's
# methods, so neither the list's traversal step nor the Arena.Get it calls
# may call one, and neither may the arena's alloc, free and header methods
# a hash-map update and a scan run. None of them may allocate either: the
# arena's slot view (value and metadata pointers) must stay out of the
# heap, or every update pays for it. hop_gate takes an awk regexp for a
# function's header line in the assembly listing of package $pkg.
hop_gate() {
  local body
  body=$(RE="$1" awk '$0 ~ ENVIRON["RE"] {f=1; print; next} / STEXT / {f=0} f' <<<"$asm")
  [ -n "$body" ] || { echo "$pkg: no assembly for $1"; exit 1; }
  if grep -q 'CALL.*mem\.Ref\.' <<<"$body"; then
    echo "$pkg: $1 calls a mem.Ref method out of line"; exit 1
  fi
  if grep -q 'CALL.*runtime\.newobject' <<<"$body"; then
    echo "$pkg: $1 allocates (runtime.newobject)"; exit 1
  fi
}
pkg=./internal/list
asm=$(go build -gcflags=-S "$pkg" 2>&1)
hop_gate '^repro/internal/list\.\(\*Ops\)\.find STEXT'
hop_gate '^repro/internal/mem\.\(\*Arena\[.*\]\)\.Get STEXT'
pkg=./internal/hashmap
asm=$(go build -gcflags=-S "$pkg" 2>&1)
for fn in Get Header AllocAt FreeAt FreeBatchAt releaseSlot slotAt spill popGlobal; do
  hop_gate "^repro/internal/mem\\.\\(\\*Arena\\[.*\\]\\)\\.$fn STEXT"
done
# The write side's logical-delete CAS builds its expected word with
# smr.Ptr.WithMark; neither structure may reach mem.Ref.WithMark for it.
wasm=$(go build -gcflags=-S ./internal/list ./internal/hashmap 2>&1)
if grep -q 'CALL.*mem\.Ref\.WithMark' <<<"$wasm"; then
  echo "./internal/list or ./internal/hashmap calls mem.Ref.WithMark out of line"; exit 1
fi
echo "== hygiene (no sampler artifacts committed under internal/) =="
stray=$(find internal -name '*.jsonl' 2>/dev/null || true)
[ -z "$stray" ] || { echo "stray .jsonl artifacts under internal/:"; echo "$stray"; exit 1; }
echo "== tests =="
go test ./...
echo "== benchmark module tests (cmd/heperf is a nested module go test ./... skips) =="
(cd cmd/heperf && GOFLAGS= GOWORK=off go test ./...)
echo "== benchmark module vet (root go build never sees cmd/heperf; an smr API break must fail here) =="
(cd cmd/heperf && GOFLAGS= GOWORK=off go vet ./...)
echo "== race (reclamation core) =="
go test -race ./internal/core/... ./internal/reclaim/... ./internal/mem/...
echo "== race (registry growth + session churn, every scheme) =="
go test -race -run 'TestRegistry|TestAcquireReleasePool|TestConformanceHandleChurn|TestAcquireReleaseScratchReset|TestMinMaxScanDuringGrowth' ./internal/reclaim/
echo "== fuzz smoke (ref packing + arena scripts, fixed budget) =="
go test -run '^$' -fuzz '^FuzzRefPack$' -fuzztime 5s ./internal/mem/
go test -run '^$' -fuzz '^FuzzRefPacking$' -fuzztime 5s ./internal/mem/
go test -run '^$' -fuzz '^FuzzArenaAllocFree$' -fuzztime 5s ./internal/mem/
echo "== schedule-injection suites (linearizability + safety oracles) =="
go test -race ./internal/schedtest/ ./internal/linz/
go run ./cmd/hecheck -seeds 2
go run ./cmd/hecheck -mutate skip-publish -scheme HE -seeds 8 > /dev/null
echo "== observability (recorder/hub races, live scrape, hemon frame, sampler) =="
go test -race -count=2 ./internal/obs/
go test -race -run 'TestObs|TestStatsPool|TestStatsPending' ./internal/reclaim/
obstmp=$(mktemp -d)
trap 'rm -rf "$obstmp"' EXIT
go build -o "$obstmp/hebench" ./cmd/hebench
"$obstmp/hebench" -exp stalled -dur 100ms -threads 2 \
  -metrics 127.0.0.1:0 -hold 60s -sample "$obstmp/pending.jsonl" \
  > "$obstmp/hebench.out" 2>&1 &
obspid=$!
addr=""
for _ in $(seq 1 150); do
  addr=$(sed -n 's|^metrics: http://\([^/]*\)/metrics$|\1|p' "$obstmp/hebench.out")
  [ -n "$addr" ] && break
  sleep 0.2
done
[ -n "$addr" ] || { echo "hebench never announced its metrics address"; cat "$obstmp/hebench.out"; exit 1; }
# Let the stalled experiment populate the domains, then scrape. EBR is
# last in the stalled roster (after WFE and both hyaline variants), so its
# series appearing means every scheme asserted below has registered.
# Bodies are captured whole before grep -q reads them, as in the health mode.
for _ in $(seq 1 300); do
  scrape=$(curl -sf "http://$addr/metrics" 2>/dev/null || true)
  grep -qF 'smr_retired_total{scheme="EBR"}' <<<"$scrape" && break
  sleep 0.2
done
scrape=$(curl -sf "http://$addr/metrics")
for series in \
  'smr_retired_total{scheme="HE"}' \
  'smr_freed_total{scheme="HE"}' \
  'smr_pending{scheme="HE"}' \
  'smr_era_lag_max{scheme="HE"}' \
  'smr_scan_latency_ns_bucket{scheme="HE"' \
  'smr_retired_total{scheme="EBR"}' \
  'smr_retired_total{scheme="HP"}'; do
  grep -qF "$series" <<<"$scrape" || { echo "missing series: $series"; exit 1; }
done
jsonok=""
for _ in $(seq 1 25); do
  mjson=$(curl -sf "http://$addr/metrics.json" 2>/dev/null || true)
  grep -q '"scheme"' <<<"$mjson" && { jsonok=1; break; }
  sleep 0.2
done
[ -n "$jsonok" ] || { echo "/metrics.json empty"; exit 1; }
go run ./cmd/hemon -addr "$addr" -once -events 5 > /dev/null
kill "$obspid" 2>/dev/null || true
wait "$obspid" 2>/dev/null || true
grep -q '"scheme":"HE"' "$obstmp/pending.jsonl" || { echo "sampler JSONL empty"; exit 1; }
echo "== observability overhead (enabled vs disabled) =="
go test -run '^$' -bench 'RetireScanObs|HandleOpsObs' -benchtime 200ms -cpu 8 ./internal/reclaim/
echo "== arena (size classes: slab growth + magazine churn races, byte-value structures) =="
go test -race -run 'TestByteSlabGrowthRace|TestByteMagazineChurnRace' ./internal/mem/
go test -race -run 'TestByteValues' ./internal/list/ ./internal/hashmap/ ./internal/bst/
go test -run 'TestByteValues|TestParseValSizer' ./internal/skiplist/ ./internal/bench/
echo "== arena overhead (typed single-class path vs byte-class ladder) =="
go test -run '^$' -bench 'ArenaAllocFree$|ArenaAllocFreeClass' -benchtime 200ms -cpu 8 ./internal/mem/
go run ./cmd/hestress -struct list,map -scheme HE -threads 4 -dur 300ms -valsize zipf:2048 > /dev/null
if [ "$mode" = "full" ]; then
  echo "== race =="
  go test -race ./...
  echo "== adversarial stress (checked arenas) =="
  go run ./cmd/hestress -dur 1s -threads 8
  echo "== schematic replays (exit 1 on divergence) =="
  go run ./cmd/hetrace > /dev/null
  echo "== experiment smoke =="
  go run ./cmd/hebench -exp all -dur 100ms > /dev/null
fi
echo "ALL CHECKS PASSED ($mode)"
