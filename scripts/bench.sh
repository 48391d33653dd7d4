#!/usr/bin/env bash
# bench.sh — run the simulator speed benchmarks, record the results as a
# machine-readable JSON file (default BENCH_6.json in the repo root),
# and gate them against a checked-in baseline.
#
# Usage:
#   scripts/bench.sh [-profile-dir DIR] [output.json]
#   BENCHTIME=10s scripts/bench.sh        # longer, steadier runs
#   BENCH_COUNT=1 scripts/bench.sh        # single pass (default 3)
#   BASELINE=none scripts/bench.sh        # record only, no regression gate
#   SKIP_LARGE=1 scripts/bench.sh         # skip the 32x16/64x8 configs
#   PROFILE_DIR=prof scripts/bench.sh     # same as -profile-dir prof
#
# The file records cycles/s (or jobs/s), ns/op, B/op and allocs/op for
# each BenchmarkSimSpeed* case (including the two large configs and the
# 1024-node hierarchical row SimSpeedHier/16x8x8, whose
# "peak_rss_mb" field is the process high-water memory mark after the
# run), the System.Reset reuse benchmarks (SystemReset, SweepJobs,
# ServiceThroughput), plus the pre-optimization baseline of the headline
# case (64-node P-B, uniform, load 0.5) and the resulting speedup
# factors. See the Performance sections of README.md and DESIGN.md for
# what the numbers mean.
#
# Each benchmark runs BENCH_COUNT times. The recorded headline figure is
# the per-metric best (min ns/op + max cycles/s, min B/op, min
# allocs/op): on shared machines co-tenant interference only ever adds
# time and garbage, so the best of N is the least-noisy estimate of the
# true cost, and the regression gate stays meaningful run to run. The
# individual per-run ns/op samples are also recorded
# ("samples_ns_per_op"), together with their spread as "variance_pct"
# (100 * (max - min) / min over the samples), so a reader of the JSON
# can judge how noisy the box was without access to the raw output.
#
# -profile-dir DIR additionally captures CPU and heap profiles of the
# 32x16 large-config benchmark (cpu-32x16-w1.pprof, mem-32x16-w1.pprof,
# plus the bench.test binary for symbolizing).
# Inspect with:  go tool pprof DIR/bench.test DIR/cpu-32x16-w1.pprof
#
# Gates (after recording; every gate's outcome — ok, FAIL, or skipped
# with the reason — is appended to the JSON under "gates", so the perf
# trajectory is self-describing off-box):
#   - against $BASELINE (default BENCH_5.json): any benchmark present in
#     both files may not lose more than 20% cycles/s. Cross-run absolute
#     throughput on shared machines drifts ±15% with co-tenant load
#     (measured: the same binary spans 84–99k cycles/s on the P-B
#     headline across a day), so this margin only catches engine-scale
#     regressions; the same-run relative gate below is the precise
#     one, being immune to box drift;
#   - on every machine running the large configs: SweepJobs/reuse must
#     be at least 1.5x SweepJobs/fresh jobs/s — the System.Reset reuse
#     payoff on repeated same-topology jobs.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3s}"
BENCH_COUNT="${BENCH_COUNT:-3}"
PROFILE_DIR="${PROFILE_DIR:-}"

ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
        -profile-dir|--profile-dir)
            PROFILE_DIR="$2"; shift 2 ;;
        *)
            ARGS+=("$1"); shift ;;
    esac
done
OUT="${ARGS[0]:-BENCH_6.json}"
BASELINE="${BASELINE:-BENCH_5.json}"

# The hierarchical 1k-node row runs in its own process below so its
# peakRSS-MB metric (getrusage ru_maxrss, a process-wide high-water
# mark) measures that row alone rather than whatever large config ran
# before it in the same binary.
BENCH_RE='BenchmarkSimSpeed($|Large|HighLoad|Complement|Idle)|BenchmarkSystemReset|BenchmarkSweepJobs|BenchmarkServiceThroughput'
HIER_RE='BenchmarkSimSpeedHier'
if [ "${SKIP_LARGE:-0}" = "1" ]; then
    # The reuse benchmarks all run large configs (64x8 jobs, 32x16
    # resets), so SKIP_LARGE drops them along with SimSpeedLarge and
    # the 1024-node hierarchical row.
    BENCH_RE='BenchmarkSimSpeed($|HighLoad|Complement|Idle)'
    HIER_RE=''
fi

# Capture stderr too, and surface the output even when go test fails —
# otherwise set -e discards the evidence with the command substitution.
# -timeout 0: the full matrix at BENCH_COUNT repeats legitimately
# outruns go test's default 10-minute kill on slow or shared boxes.
if ! RAW="$(go test -run '^$' -bench "$BENCH_RE" -benchtime "$BENCHTIME" -count "$BENCH_COUNT" -timeout 0 . 2>&1)"; then
    printf '%s\n' "$RAW" >&2
    echo "bench.sh: benchmark run failed" >&2
    exit 1
fi
if [ -n "$HIER_RE" ]; then
    if ! HRAW="$(go test -run '^$' -bench "$HIER_RE" -benchtime "$BENCHTIME" -count "$BENCH_COUNT" -timeout 0 . 2>&1)"; then
        printf '%s\n' "$HRAW" >&2
        echo "bench.sh: hierarchical benchmark run failed" >&2
        exit 1
    fi
    RAW="$RAW
$HRAW"
fi
printf '%s\n' "$RAW"

printf '%s\n' "$RAW" | awk \
    -v go_version="$(go version | awk '{print $3}')" \
    -v benchtime="$BENCHTIME" \
    -v bench_count="$BENCH_COUNT" \
    -v cpus="$(nproc)" '
/^Benchmark(SimSpeed|SystemReset|SweepJobs|ServiceThroughput)/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)      # strip the -GOMAXPROCS suffix
    ns = "null"; cyc = "null"; jobs = "null"; bytes = "null"; allocs = "null"; rss = "null"
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")           ns = $i
        else if ($(i+1) == "cycles/s")   cyc = $i
        else if ($(i+1) == "jobs/s")     jobs = $i
        else if ($(i+1) == "B/op")       bytes = $i
        else if ($(i+1) == "allocs/op")  allocs = $i
        else if ($(i+1) == "peakRSS-MB") rss = $i
    }
    if (!(name in seen)) {
        n++; names[n] = name; seen[name] = n
        nss[n] = ns; cycs[n] = cyc; jobss[n] = jobs
        bytess[n] = bytes; allocss[n] = allocs; rsss[n] = rss
        if (ns != "null") { samples[n] = ns; minns[n] = ns + 0; maxns[n] = ns + 0 }
        next
    }
    # Repeat runs (-count): keep the per-metric best — interference only
    # ever inflates a figure, so the minimum (maximum for rates) is the
    # cleanest estimate of the true cost — but record every ns/op sample
    # so the JSON carries the run-to-run spread too.
    k = seen[name]
    if (ns != "null") {
        samples[k] = (samples[k] == "" ? ns : samples[k] ", " ns)
        if (ns + 0 < minns[k]) minns[k] = ns + 0
        if (ns + 0 > maxns[k]) maxns[k] = ns + 0
    }
    if (ns != "null"     && (nss[k] == "null"     || ns + 0 < nss[k] + 0))        nss[k] = ns
    if (cyc != "null"    && (cycs[k] == "null"    || cyc + 0 > cycs[k] + 0))      cycs[k] = cyc
    if (jobs != "null"   && (jobss[k] == "null"   || jobs + 0 > jobss[k] + 0))    jobss[k] = jobs
    if (bytes != "null"  && (bytess[k] == "null"  || bytes + 0 < bytess[k] + 0))  bytess[k] = bytes
    if (allocs != "null" && (allocss[k] == "null" || allocs + 0 < allocss[k] + 0)) allocss[k] = allocs
    # Peak RSS is a high-water mark: the max across repeats is the figure.
    if (rss != "null"    && (rsss[k] == "null"    || rss + 0 > rsss[k] + 0))      rsss[k] = rss
}
END {
    if (n == 0) { print "bench.sh: no benchmark results parsed" > "/dev/stderr"; exit 1 }
    # Pre-PR baseline of the headline case, measured at the seed commit
    # on the same class of machine (see README.md "Performance").
    base_ns = 27829; base_cycles = 35933; base_bytes = 3840; base_allocs = 30
    printf "{\n"
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"bench_count\": %d,\n", bench_count
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"baseline\": {\n"
    printf "    \"name\": \"SimSpeed/P-B (pre-optimization seed)\",\n"
    printf "    \"ns_per_op\": %g, \"cycles_per_sec\": %g, \"bytes_per_op\": %g, \"allocs_per_op\": %g\n", base_ns, base_cycles, base_bytes, base_allocs
    printf "  },\n"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        var = "0"
        if (samples[i] != "" && minns[i] > 0)
            var = sprintf("%.1f", 100 * (maxns[i] - minns[i]) / minns[i])
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"cycles_per_sec\": %s, \"jobs_per_sec\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"peak_rss_mb\": %s,\n", \
            names[i], nss[i], cycs[i], jobss[i], bytess[i], allocss[i], rsss[i]
        printf "     \"samples_ns_per_op\": [%s], \"variance_pct\": %s}%s\n", \
            samples[i], var, (i < n ? "," : "")
        if (names[i] == "SimSpeed/P-B") { head_cyc = cycs[i]; head_allocs = allocss[i] }
    }
    printf "  ]"
    if (head_cyc != "") {
        printf ",\n  \"headline\": {\n"
        printf "    \"name\": \"SimSpeed/P-B\",\n"
        printf "    \"speedup_cycles_per_sec\": %.2f,\n", head_cyc / base_cycles
        if (head_allocs + 0 == 0)
            printf "    \"alloc_reduction\": \"%gx -> 0 (allocation-free steady state)\"\n", base_allocs
        else
            printf "    \"alloc_reduction\": %.2f\n", base_allocs / head_allocs
        printf "  }"
    }
    printf "\n}\n"
}' > "$OUT"

echo "wrote $OUT" >&2

if [ -n "$PROFILE_DIR" ]; then
    mkdir -p "$PROFILE_DIR"
    echo "bench.sh: capturing CPU+heap profiles into $PROFILE_DIR" >&2
    go test -run '^$' -bench 'BenchmarkSimSpeedLarge/32x16-w1$' \
        -benchtime "$BENCHTIME" -timeout 0 \
        -cpuprofile "$PROFILE_DIR/cpu-32x16-w1.pprof" \
        -memprofile "$PROFILE_DIR/mem-32x16-w1.pprof" \
        -o "$PROFILE_DIR/bench.test" . >/dev/null
    echo "bench.sh: inspect with: go tool pprof $PROFILE_DIR/bench.test $PROFILE_DIR/cpu-32x16-w1.pprof" >&2
fi

python3 - "$OUT" "$BASELINE" <<'EOF'
import json, os, sys

out_path, base_path = sys.argv[1], sys.argv[2]
cur = json.load(open(out_path))
cur_b = {b["name"]: b for b in cur.get("benchmarks", [])}

# Every gate outcome lands both on stdout and in the JSON's "gates"
# array, skips included, so the recorded file explains itself off-box.
gates = []
failures = []

def record(name, status, detail):
    gates.append({"gate": name, "status": status, "detail": detail})
    print(f"  {status:4s} {name}: {detail}")
    if status == "FAIL":
        failures.append(name)

def skip(name, reason):
    gates.append({"gate": name, "status": "skipped", "reason": reason})
    print(f"  skip {name}: {reason}")

if base_path == "none":
    skip("baseline regression", "BASELINE=none")
elif not os.path.exists(base_path):
    skip("baseline regression", f"baseline {base_path} not found")
else:
    base_b = {b["name"]: b for b in json.load(open(base_path)).get("benchmarks", [])
              if b.get("cycles_per_sec") is not None}

    # The idle floor is sub-microsecond per cycle: scheduler jitter alone
    # moves it +/-20% run to run, so it is reported but not gated.
    UNGATED = {"SimSpeedIdle"}

    for name, old in sorted(base_b.items()):
        new = cur_b.get(name)
        if new is None or new.get("cycles_per_sec") is None:
            continue
        ratio = new["cycles_per_sec"] / old["cycles_per_sec"]
        detail = (f"{old['cycles_per_sec']:.0f} -> "
                  f"{new['cycles_per_sec']:.0f} cycles/s ({ratio:.2f}x)")
        if name in UNGATED:
            record(f"baseline {name}", "info", detail + " (ungated)")
        else:
            record(f"baseline {name}", "FAIL" if ratio < 0.80 else "ok", detail)

# System.Reset reuse gate, same-run relative so box drift cannot touch
# it: repeated same-topology jobs through a Runner must beat fresh
# construction by at least 1.5x jobs/s.
fresh = cur_b.get("SweepJobs/fresh")
reuse = cur_b.get("SweepJobs/reuse")
if not (fresh and reuse and fresh.get("jobs_per_sec") and reuse.get("jobs_per_sec")):
    skip("SweepJobs reuse speedup", "SweepJobs rows missing (SKIP_LARGE=1?)")
else:
    ratio = reuse["jobs_per_sec"] / fresh["jobs_per_sec"]
    record("SweepJobs reuse speedup",
           "FAIL" if ratio < 1.5 else "ok",
           f"{fresh['jobs_per_sec']:.2f} -> {reuse['jobs_per_sec']:.2f} jobs/s "
           f"({ratio:.2f}x, need >= 1.5x)")

cur["gates"] = gates
with open(out_path, "w") as f:
    json.dump(cur, f, indent=2)
    f.write("\n")

if failures:
    print(f"bench.sh: {len(failures)} gate(s) failed: {', '.join(failures)}",
          file=sys.stderr)
    sys.exit(1)
print("bench.sh: regression gate passed")
EOF
