#!/bin/sh
# bench.sh — run the paper-facing benchmark set and emit BENCH_janus.json.
#
# Usage: scripts/bench.sh [output.json]
#
# Runs the encoding ablation, the Table II JANUS subset, and the CEGAR
# engine bench, and converts `go test -bench` output into a JSON document.
# Every ReportMetric unit lands in the per-benchmark "metrics" map, so the
# CEGAR rows carry the solver-effort counters (conflicts, propagations)
# next to iters and clause volumes:
#
#   {
#     "benchmarks": [ {"name": ..., "ns_per_op": ..., "metrics": {...}}, ... ],
#     "cegar_seed_baseline": { ... }   # pre-incremental engine, for reference
#   }
#
# The cegar_seed_baseline block holds the rebuild-per-iteration engine's
# wall times measured at the growth seed (commit 857da60), so the
# incremental engine's speedup stays visible without checking out the old
# tree: compare them against the BenchmarkCegarEngine ns_per_op values.
#
# A "search" block times the whole dichotomic search, which runs every
# LM solve on one shared assumption pool per synthesis
# (BenchmarkSharedSearch): per instance, wall time, the clause volume
# added to the pool's solvers, skeleton reuses and counterexample clauses
# transferred between candidates. scripts/perfgate.py gates its ns
# column against the baseline.
#
# A "service_load" block is appended from a cmd/janusload run against a
# freshly started janusd (48 requests cycling 4 functions): rps, latency
# percentiles, and the fresh/coalesced/cached answer composition.
#
# An "anytime" block follows from a second janusload run in -stream mode
# (async submit + progress-event follow against a cold cache): time from
# submission to first verified mapping, p50/p99, plus the event volume
# and how many answers degraded to partial.
#
# A "batch_tenancy" block measures the JANUS-MF batch endpoint and the
# multi-tenant scheduler on a fresh daemon: 16 functions submitted
# independently and then as one POST /v1/synthesize/batch (the batch
# must spend fewer LM solves — the paper's multi-function win, gated in
# CI), plus a two-tenant contended run's per-tenant completion counts
# and the scheduler's fairness block.
#
# A "front_shard" block measures the janusfront sharding tier: the
# latency cost of proxying through a single-backend front vs hitting the
# daemon directly (direct/front1 p50/p99 — the front should cost
# low-single-digit ms), and a 3-backend front's cold-vs-warm composition
# (the warm re-run must be nearly all cache hits, which is exactly the
# shard-affinity property: same function -> same backend -> warm cache).
set -eu

out=${1:-BENCH_janus.json}
cd "$(dirname "$0")/.."

raw=$(mktemp)
svcdir=$(mktemp -d)
svcpid=""
frontpids=""
cleanup() {
    [ -n "$svcpid" ] && kill "$svcpid" 2>/dev/null || true
    for p in $frontpids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$raw" "$svcdir"
}
trap cleanup EXIT

go test -run '^$' \
  -bench 'BenchmarkAblationEncoding|BenchmarkTableIIJanus|BenchmarkCegarEngine' \
  -benchtime 3x . | tee "$raw"

# The search rows feed the perf gate. Run them with more iterations and
# three repetitions; the JSON keeps the minimum wall time per benchmark,
# which is the noise-robust statistic for a gate (counters are
# deterministic).
go test -run '^$' -bench 'BenchmarkSharedSearch' -benchtime 5x -count 3 . | tee -a "$raw"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS
    ns = ""
    metrics = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") { ns = v; continue }
        gsub(/"/, "", u)
        m = sprintf("\"%s\": %s", u, v)
        metrics = metrics == "" ? m : metrics ", " m
        if (name ~ /^BenchmarkSharedSearch\//) sv[name "/" u] = v
    }
    # Repeated benchmarks (-count > 1) fold to their fastest rep; the
    # ReportMetric counters are deterministic, so keeping the last rep
    # for those loses nothing.
    if (!(name in bestNs) || ns + 0 < bestNs[name] + 0) bestNs[name] = ns
    met[name] = metrics
    if (!(name in seen)) { seen[name] = 1; order[++nbench] = name }
    if (name ~ /^BenchmarkSharedSearch\//) {
        split(name, parts, "/")
        insts[parts[2]] = 1
        sv[name "/ns"] = bestNs[name]
    }
}
END {
    print "{\n  \"benchmarks\": ["
    for (i = 1; i <= nbench; i++) {
        name = order[i]
        printf "%s    {\"name\": \"%s\", \"ns_per_op\": %s, \"metrics\": {%s}}", \
            (i > 1 ? ",\n" : ""), name, bestNs[name], met[name]
    }
    print "\n  ],"
    print "  \"search\": {"
    print "    \"comment\": \"whole dichotomic search on one shared assumption pool per synthesis\","
    firstinst = 1
    for (inst in insts) {
        p = "BenchmarkSharedSearch/" inst
        if (!firstinst) printf ",\n"
        firstinst = 0
        printf "    \"%s\": {\"ns\": %s, \"clauses_added\": %s, \"solver_reuses\": %s, \"cex_transferred\": %s}", \
            inst, sv[p "/ns"], sv[p "/clauses-added"], \
            sv[p "/solver-reuses"], sv[p "/cex-transferred"]
    }
    print "\n  },"
    print "  \"cegar_seed_baseline\": {"
    print "    \"comment\": \"rebuild-per-iteration CEGAR engine at the growth seed; ns wall per solve\","
    print "    \"dc1_02-4x3\": {\"ns_per_op\": 92080000, \"iters\": 12, \"clauses_pushed\": 26436},"
    print "    \"b12_03-4x4\": {\"ns_per_op\": 6590000, \"iters\": 5, \"clauses_pushed\": 8480},"
    print "    \"mp2d_06-5x4\": {\"ns_per_op\": 53120000, \"iters\": 14, \"clauses_pushed\": 69734},"
    print "    \"misex1_04-4x4\": {\"ns_per_op\": 31830000, \"clauses_pushed\": 36224}"
    print "  }"
    print "}"
}' "$raw" > "$out"

# Service throughput: run a warm-cache workload through a local janusd
# and fold the janusload JSON report into the document.
go build -o "$svcdir" ./cmd/janusd ./cmd/janusload
"$svcdir/janusd" -addr localhost:7163 -cache-dir "$svcdir/cache" -workers 2 &
svcpid=$!
sleep 1
svcjson=$("$svcdir/janusload" -addr http://localhost:7163 \
    -n 48 -c 8 -distinct 4 -timeout-ms 60000 -json)

# Anytime measurement: stream fresh (uncached seed) functions so the
# first-mapping latency reflects real searches, not cache hits.
streamjson=$("$svcdir/janusload" -addr http://localhost:7163 \
    -n 12 -c 4 -distinct 4 -seed 77 -timeout-ms 60000 -stream -json)
anytime=$(printf '%s' "$streamjson" | python3 -c \
    'import json,sys; print(json.dumps(json.load(sys.stdin).get("anytime") or {}))')
kill -TERM "$svcpid" && wait "$svcpid" || true
svcpid=""
merged=$(mktemp)
awk -v svc="$svcjson" -v any="$anytime" '
/^}$/ { print "  ,"; print "  \"service_load\": " svc ","; print "  \"anytime\": " any; print "}"; next }
{ print }
' "$out" > "$merged" && mv "$merged" "$out"

# Batch + tenancy: a fresh daemon (no cache dir — the batch comparison
# needs cold per-function answers) measures the JANUS-MF batching win,
# then a two-tenant contended run's fairness accounting. The batch
# workload is 16 six-input functions: independent submissions first
# (their cache entries never help the batch, whose key is its own), then
# the same functions as one batch.
"$svcdir/janusd" -addr localhost:7167 -workers 2 \
    -tenants "bulk:1:16,inter:4" &
svcpid=$!
sleep 1
batchjson=$("$svcdir/janusload" -addr http://localhost:7167 \
    -batch -distinct 16 -inputs 6 -seed 9 -timeout-ms 60000 -json)
batch=$(printf '%s' "$batchjson" | python3 -c \
    'import json,sys; print(json.dumps(json.load(sys.stdin)["batch_tenancy"]))')
tenantjson=$("$svcdir/janusload" -addr http://localhost:7167 \
    -tenants bulk,inter -n 48 -c 8 -distinct 8 -seed 5 -timeout-ms 60000 -json)
tenants=$(printf '%s' "$tenantjson" | python3 -c \
    'import json,sys; r=json.load(sys.stdin)
print(json.dumps({"completed_by_tenant": r.get("completed_by_tenant"),
                  "scheduler": r.get("scheduler")}))')
kill -TERM "$svcpid" && wait "$svcpid" || true
svcpid=""
merged=$(mktemp)
awk -v b="$batch" -v tn="$tenants" '
/^}$/ {
    print "  ,"
    print "  \"batch_tenancy\": {"
    print "    \"comment\": \"16 functions independently vs as one JANUS-MF batch (batch.batch_lm_solved must beat batch.independent_lm_solved), plus a two-tenant contended run: completion counts and the DRR scheduler block\","
    print "    \"batch\": " b ","
    print "    \"tenants\": " tn
    print "  }"
    print "}"
    next
}
{ print }
' "$out" > "$merged" && mv "$merged" "$out"

# Front tier: proxy overhead (1 backend, direct vs through the front)
# and shard-affinity hit rate (3 backends, cold then warm).
go build -o "$svcdir" ./cmd/janusfront
fleetpeers=http://localhost:7164,http://localhost:7165,http://localhost:7166
"$svcdir/janusd" -addr localhost:7164 -cache-dir "$svcdir/b1" -workers 2 -peers "$fleetpeers" &
frontpids="$frontpids $!"
"$svcdir/janusd" -addr localhost:7165 -cache-dir "$svcdir/b2" -workers 2 -peers "$fleetpeers" &
frontpids="$frontpids $!"
"$svcdir/janusd" -addr localhost:7166 -cache-dir "$svcdir/b3" -workers 2 -peers "$fleetpeers" &
frontpids="$frontpids $!"
"$svcdir/janusfront" -addr localhost:7171 -backends http://localhost:7164 &
frontpids="$frontpids $!"
"$svcdir/janusfront" -addr localhost:7172 \
    -backends http://localhost:7164,http://localhost:7165,http://localhost:7166 &
frontpids="$frontpids $!"
sleep 1

# Warm the single backend directly, then measure warm p50 both ways —
# the delta is the front's own cost, not synthesis noise.
"$svcdir/janusload" -addr http://localhost:7164 \
    -n 32 -c 4 -distinct 4 -seed 11 -timeout-ms 60000 -json > /dev/null
directjson=$("$svcdir/janusload" -addr http://localhost:7164 \
    -n 32 -c 4 -distinct 4 -seed 11 -timeout-ms 60000 -json)
front1json=$("$svcdir/janusload" -addr http://localhost:7171 \
    -n 32 -c 4 -distinct 4 -seed 11 -timeout-ms 60000 -json)

# 3-backend front: cold sweep over 8 distinct functions, then the warm
# re-run — shard affinity makes the repeat nearly all cache hits.
front3cold=$("$svcdir/janusload" -addr http://localhost:7172 \
    -n 32 -c 8 -distinct 8 -seed 23 -timeout-ms 60000 -json)
front3warm=$("$svcdir/janusload" -addr http://localhost:7172 \
    -n 32 -c 8 -distinct 8 -seed 23 -timeout-ms 60000 -json)
frontstats=$(python3 -c 'import json,urllib.request
st = json.load(urllib.request.urlopen("http://localhost:7172/v1/stats"))
print(json.dumps(st["front"]))')
for p in $frontpids; do kill "$p" 2>/dev/null || true; done
for p in $frontpids; do wait "$p" 2>/dev/null || true; done
frontpids=""

merged=$(mktemp)
awk -v d="$directjson" -v f1="$front1json" -v c3="$front3cold" -v w3="$front3warm" -v fs="$frontstats" '
/^}$/ {
    print "  ,"
    print "  \"front_shard\": {"
    print "    \"comment\": \"janusfront tier: warm p50 direct vs through a 1-backend front (proxy overhead), and a 3-backend front cold/warm (shard-affinity hit rate); front block is the 3-backend front routing counters\","
    print "    \"direct\": " d ","
    print "    \"front1\": " f1 ","
    print "    \"front3_cold\": " c3 ","
    print "    \"front3_warm\": " w3 ","
    print "    \"front\": " fs
    print "  }"
    print "}"
    next
}
{ print }
' "$out" > "$merged" && mv "$merged" "$out"

echo "wrote $out"
