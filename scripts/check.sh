#!/bin/sh
# Repository verification: gofmt, vet, build everything, then run the
# full test suite in short mode with the race detector, fuzz the
# incremental cost update against its from-scratch oracle for 10 s, and
# finish with a short instrumented optimizer run that exercises the
# observability path end-to-end (structured JSON logs + a -metrics run
# snapshot) and must apply at least one mutation and record its phase
# trace. This is the tier-1 check — run it (or `make check`) before
# every commit.
#
# METRICS_OUT overrides where the instrumented run writes its snapshot
# (CI uploads it as a workflow artifact).
set -eu
cd "$(dirname "$0")/.."

METRICS_OUT="${METRICS_OUT:-/tmp/iddqsyn-check-metrics.json}"

echo "== gofmt -l ."
test -z "$(gofmt -l .)" || {
    echo "check: gofmt wants to reformat:" >&2
    gofmt -l . >&2
    exit 1
}
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
# The paper path links only the paper: Table 1 needs none of the
# extension-study packages, which cmd/iddqstudy alone imports.
echo "== dependency fence (go list -deps ./cmd/table1)"
fenced="$(go list -deps ./cmd/table1 |
    grep -E '^iddqsyn/internal/(anneal|atpg|podem|deltaiddq|seq|techmap|yield|report)$' || true)"
test -z "$fenced" || {
    echo "check: cmd/table1 links extension-study packages:" $fenced >&2
    exit 1
}
# The synthesis path starts goroutines only through internal/par, its one
# worker pool: no other synthesis package holds a go statement.
echo "== goroutine fence (go statements outside internal/par)"
spawns="$(find internal/estimate internal/partition internal/evolution \
    internal/partcheck internal/standard internal/core internal/bic \
    -name '*.go' ! -name '*_test.go' \
    -exec grep -HnE '^[[:space:]]*go[[:space:]]' {} + || true)"
test -z "$spawns" || {
    echo "check: synthesis packages start goroutines outside internal/par:" >&2
    echo "$spawns" >&2
    exit 1
}
# cmd/iddqbench is its own module (it replaces iddqsyn with this checkout),
# so the root ./... patterns skip it; vet it separately so an exported-API
# change cannot break the benchmark unnoticed.
echo "== (cd cmd/iddqbench && go vet ./...)"
(cd cmd/iddqbench && go vet ./...)
echo "== iddqlint ./..."
go run ./cmd/iddqlint ./...
echo "== go test -race -short ./..."
go test -race -short ./...
# The exact-recompute oracle of the incremental cost update: random move
# sequences must keep every module's S(M), n(t) and the cost vector
# bit-identical to a from-scratch evaluation.
echo "== fuzz FuzzDeltaCost (10s)"
go test -run '^$' -fuzz '^FuzzDeltaCost$' -fuzztime 10s ./internal/partition/
echo "== chaos soak (go test -run TestChaosSoak ./internal/chaos/)"
go test -run TestChaosSoak ./internal/chaos/
echo "== instrumented run (metrics -> $METRICS_OUT)"
go run ./cmd/iddqpart -gens 3 -size 8 -metrics "$METRICS_OUT" \
    -log-format json -log-level info benchmarks/c432.bench >/dev/null
grep -q '"format": *"iddqsyn-run-snapshot"' "$METRICS_OUT" || {
    echo "check: metrics snapshot missing or malformed: $METRICS_OUT" >&2
    exit 1
}
# At module size 8 the start partitions have dozens of modules, so the
# mutation operators must do real work; zero applied mutations means the
# run was vacuous.
grep -Eq '"evolution\.mutation\.applied": *[1-9]' "$METRICS_OUT" || {
    echo "check: instrumented run applied no mutations: $METRICS_OUT" >&2
    exit 1
}
# The generation loop counts the descendants whose D_BIC sweep the cost
# bound spared; the counter must be in the snapshot (0 is a valid count
# for so short a run).
grep -q '"evolution\.pruned": *[0-9]' "$METRICS_OUT" || {
    echo "check: instrumented run recorded no evolution.pruned counter: $METRICS_OUT" >&2
    exit 1
}
# Tracing is on by default, so the snapshot must hold the run's phase
# trace, rooted at core.synthesize.
grep -Eq '"root": *"core\.synthesize"' "$METRICS_OUT" || {
    echo "check: instrumented run recorded no core.synthesize trace: $METRICS_OUT" >&2
    exit 1
}
echo "check: OK"
