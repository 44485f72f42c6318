#!/usr/bin/env bash
# Builds the relational microbenchmarks in Release mode, runs them,
# and writes machine-readable summaries to BENCH_relational.json and
# BENCH_obs.json (the observability overhead guards: flight recorder on
# vs. off, and segmented lineage-on vs. lineage-off).
#
# Usage: scripts/bench.sh [--append-history] [output.json]
#
# Both files (and the history line) are written first; then every guard
# runs (flight, lineage, absorb, prepare), and the script exits 1
# naming each guard that failed. A failing guard therefore never hides
# the numbers it judged.
#
# With --append-history, the BM_SegmentHop* medians plus the current
# git SHA and date are appended as one JSON line to BENCH_history.jsonl
# next to the output file — a per-commit benchmark ledger. CI feeds the
# previous entry to `bench_guard.py --history` as the regression
# baseline.
#
# Optionally set MPQE_BASELINE_MICRO / MPQE_BASELINE_DEDUP to prior
# google-benchmark JSON files to embed before/after speedup ratios.
#
# The recorded build_type is OUR binaries' CMAKE_BUILD_TYPE (read back
# from the build cache) — the summarizer refuses anything but Release.
# google-benchmark's own build flavor is informational only
# (library_build_type); distro packages commonly ship the library
# without NDEBUG, which only perturbs the harness, not our code under
# test. Set MPQE_BENCHMARK_SRC to a google-benchmark source checkout
# to build the library itself in Release and silence that warning.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build-release"

append_history=0
out=""
for arg in "$@"; do
  case "$arg" in
    --append-history) append_history=1 ;;
    *) out="$arg" ;;
  esac
done
out="${out:-${repo}/BENCH_relational.json}"

cmake_args=(-DCMAKE_BUILD_TYPE=Release)
if [[ -n "${MPQE_BENCHMARK_SRC:-}" ]]; then
  bm_src="${MPQE_BENCHMARK_SRC}"
  bm_prefix="${build}/benchmark-prefix"
  if [[ ! -f "${bm_prefix}/lib/cmake/benchmark/benchmarkConfig.cmake" ]]; then
    cmake -S "${bm_src}" -B "${build}/benchmark-build" \
      -DCMAKE_BUILD_TYPE=Release -DBENCHMARK_ENABLE_TESTING=OFF \
      -DCMAKE_INSTALL_PREFIX="${bm_prefix}" >/dev/null
    cmake --build "${build}/benchmark-build" -j "$(nproc)" --target install \
      >/dev/null
  fi
  cmake_args+=(-DCMAKE_PREFIX_PATH="${bm_prefix}")
fi

cmake -S "${repo}" -B "${build}" "${cmake_args[@]}" >/dev/null
cmake --build "${build}" -j "$(nproc)" \
  --target bench_runtime_micro bench_duplicate_elimination \
  mpqe_bench_concurrent >/dev/null

# Our binaries' build type, read back from the configured cache — this
# is what BENCH_*.json certifies, independent of the library flavor.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${build}/CMakeCache.txt")"

micro_json="${build}/bench_runtime_micro.json"
dedup_json="${build}/bench_duplicate_elimination.json"

pair_json="${build}/bench_segment_pair.json"

"${build}/bench/bench_runtime_micro" \
  --benchmark_out="${micro_json}" --benchmark_out_format=json \
  --benchmark_repetitions=1 >&2
"${build}/bench/bench_duplicate_elimination" \
  --benchmark_out="${dedup_json}" --benchmark_out_format=json \
  --benchmark_repetitions=1 >&2
# The lineage and flight-recorder guard ratios are recorded from the
# MEDIAN of repeated, interleaved runs of the segment-hop trio and the
# single-row engine-hop pair — a single repetition is too noisy to sit
# next to a hard ceiling.
"${build}/bench/bench_runtime_micro" \
  --benchmark_filter='BM_SegmentHop(Dedup|Lineage|Flight)$|BM_SingleRowHop(Flight)?$' \
  --benchmark_out="${pair_json}" --benchmark_out_format=json \
  --benchmark_repetitions=10 --benchmark_enable_random_interleaving=true >&2

# The vectorized-kernel floor: medians of repeated runs of the
# absorb/join pairs. bench_guard.py --absorb (also wired into CI)
# fails unless both batch kernels stay >= 2x their row-at-a-time
# baselines.
kernel_json="${build}/bench_segment_kernels.json"
"${build}/bench/bench_runtime_micro" \
  --benchmark_filter='BM_Segment(Absorb|Join)/' \
  --benchmark_out="${kernel_json}" --benchmark_out_format=json \
  --benchmark_repetitions=3 >&2

# Prepared-query engine load bench: concurrent sessions over one plan
# plus the plan-cache cold/hit prepare costs. bench_guard.py --prepare
# (CI) asserts the raw-text hit path stays >= 10x faster than a cold
# compile, and a new constant of the cached shape >= 4x.
engine_json="$(dirname "$out")/BENCH_engine.json"
"${build}/bench/mpqe_bench_concurrent" \
  --sessions=8 --queries=25 --scale=512 --json="${engine_json}" >&2

MPQE_BUILD_TYPE="${build_type}" \
python3 - "$out" "$micro_json" "$dedup_json" "$pair_json" "$kernel_json" <<'EOF'
import json, os, sys

out_path, micro_path, dedup_path, pair_path, kernel_path = sys.argv[1:6]

build_type = os.environ.get("MPQE_BUILD_TYPE", "").lower()
if build_type != "release":
    sys.exit(
        f"refusing to record benchmarks from a {build_type or 'unknown'!r} "
        "build: BENCH_*.json must come from CMAKE_BUILD_TYPE=Release")

def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        rows[b["name"]] = {
            "real_time_ns": b["real_time"],
            "items_per_second": b.get("items_per_second"),
        }
    return doc.get("context", {}), rows

micro_ctx, micro = load(micro_path)
_, dedup = load(dedup_path)

result = {
    "context": {
        "host": micro_ctx.get("host_name"),
        "num_cpus": micro_ctx.get("num_cpus"),
        "mhz_per_cpu": micro_ctx.get("mhz_per_cpu"),
        "build_type": build_type,
        "library_build_type": micro_ctx.get("library_build_type"),
        "date": micro_ctx.get("date"),
    },
    "bench_runtime_micro": micro,
    "bench_duplicate_elimination": dedup,
}

def attach_baseline(section, env):
    path = os.environ.get(env)
    if not path or not os.path.exists(path):
        return
    with open(path) as f:
        doc = json.load(f)
    # Accept either raw google-benchmark output or a previously
    # recorded BENCH_relational.json section.
    if "benchmarks" in doc:
        _, before = load(path)
    else:
        before = doc.get(section, {})
    for name, row in result[section].items():
        old = before.get(name)
        if not old:
            continue
        row["baseline_real_time_ns"] = old["real_time_ns"]
        if old["real_time_ns"] and row["real_time_ns"]:
            row["speedup"] = round(old["real_time_ns"] / row["real_time_ns"], 3)

attach_baseline("bench_runtime_micro", "MPQE_BASELINE_MICRO")
attach_baseline("bench_duplicate_elimination", "MPQE_BASELINE_DEDUP")

# The vectorized segment kernels, recorded as medians of the repeated
# absorb/join pair runs. Arg(0) is the row-at-a-time baseline each
# batch kernel replaced (goal node: InsertRow + linear group scan;
# rule node: scratch-Tuple copy into an unordered_set); Arg(1) is the
# vectorized path. bench_guard.py --absorb holds the floor at 2x.
def load_kernel_medians(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name") != "median":
            continue
        rows[b["run_name"]] = {
            "real_time_ns": b["real_time"],
            "items_per_second": b.get("items_per_second"),
            "aggregate": "median_of_3",
        }
    return rows

kernels = load_kernel_medians(kernel_path)
vk = {"vectorized_speedup_guard": 2.0}
for bench, label in (("BM_SegmentAbsorb", "goal_node_absorb"),
                     ("BM_SegmentJoin", "rule_node_probe")):
    row = kernels.get(f"{bench}/0")
    batch = kernels.get(f"{bench}/1")
    if not (row and batch):
        sys.exit(f"missing {bench} pair in {kernel_path}")
    vk[label] = {
        "benchmark": bench,
        "row_at_a_time": row,
        "vectorized": batch,
        "vectorized_speedup": round(
            row["real_time_ns"] / batch["real_time_ns"], 2),
    }
result["vectorized_segment_kernels"] = vk

with open(out_path, "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")

# The observability overhead guards. Lineage: the tracked number
# is the SEGMENTED pair — BM_SegmentHopLineage vs. BM_SegmentHopDedup
# run the identical insert+forward loop over 128-row segments, with
# the lineage run adding id assignment, the lineage column, and one
# batched derive record per segment. scripts/bench_guard.py (CI) fails
# if a fresh run exceeds lineage_overhead_guard.
obs_path = os.path.join(os.path.dirname(out_path) or ".", "BENCH_obs.json")
def load_medians(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("aggregate_name") != "median":
            continue
        rows[b["run_name"]] = {
            "real_time_ns": b["real_time"],
            "items_per_second": b.get("items_per_second"),
            "aggregate": f"median_of_{b.get('repetitions', '?')}",
        }
    return rows

pair = load_medians(pair_path)
seg_off = pair.get("BM_SegmentHopDedup")
seg_on = pair.get("BM_SegmentHopLineage")
obs = {"context": result["context"]}
hop_off = pair.get("BM_SingleRowHop")
hop_flight = pair.get("BM_SingleRowHopFlight")
if hop_off and hop_flight:
    # The always-on black box on the shape that pays for it: one-row
    # answers through real node processes, with the network's flight
    # tap vs. without. Both sides clock every delivery, so the ratio
    # prices the ring write. bench_guard.py --flight (CI) holds it at
    # the guard below.
    fratio = hop_flight["real_time_ns"] / hop_off["real_time_ns"]
    obs["flight_off"] = hop_off
    obs["flight_on"] = hop_flight
    obs["flight_overhead_ratio"] = round(fratio, 3)
    obs["flight_overhead_guard"] = 1.3
seg_flight = pair.get("BM_SegmentHopFlight")
if seg_off and seg_flight:
    # Informational: the same tap on the 128-row segment hop, where
    # one record is amortized over a whole segment.
    obs["flight_segment_on"] = seg_flight
    obs["flight_segment_overhead_ratio"] = round(
        seg_flight["real_time_ns"] / seg_off["real_time_ns"], 3)
if seg_off and seg_on:
    ratio = seg_on["real_time_ns"] / seg_off["real_time_ns"]
    obs["lineage_off"] = seg_off
    obs["lineage_on"] = seg_on
    obs["lineage_overhead_ratio"] = round(ratio, 3)
    obs["lineage_overhead_guard"] = 1.5
    # 1001 hops x 128 rows + the seed segment.
    obs["lineage_overhead_ns_per_row"] = round(
        (seg_on["real_time_ns"] - seg_off["real_time_ns"]) / (1001 * 128),
        2)
with open(obs_path, "w") as f:
    json.dump(obs, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {obs_path}")
EOF

if [[ "${append_history}" == "1" ]]; then
  history="$(dirname "$out")/BENCH_history.jsonl"
  sha="$(git -C "${repo}" rev-parse HEAD 2>/dev/null || echo unknown)"
  MPQE_HISTORY_SHA="${sha}" \
  python3 - "${history}" "${pair_json}" <<'EOF'
import datetime, json, os, sys

history_path, pair_path = sys.argv[1:3]
with open(pair_path) as f:
    doc = json.load(f)
medians = {}
for b in doc.get("benchmarks", []):
    if b.get("aggregate_name") == "median":
        medians[b["run_name"]] = round(b["real_time"], 1)
if not medians:
    sys.exit(f"no medians in {pair_path}; was it run with repetitions?")
entry = {
    "sha": os.environ.get("MPQE_HISTORY_SHA", "unknown"),
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
    "medians_ns": medians,
}
with open(history_path, "a") as f:
    f.write(json.dumps(entry, sort_keys=True) + "\n")
print(f"appended {entry['sha'][:12]} to {history_path} "
      f"({len(medians)} median(s))")
EOF
fi

# Every guard runs, each on what was just recorded; the exit names
# the ones that failed.
obs_json="$(dirname "$out")/BENCH_obs.json"
guard="${repo}/scripts/bench_guard.py"
failed=()
python3 "${guard}" --flight "${pair_json}" || failed+=(flight)
python3 "${guard}" "${obs_json}" "${pair_json}" || failed+=(lineage)
python3 "${guard}" --absorb "${kernel_json}" || failed+=(absorb)
python3 "${guard}" --prepare "${engine_json}" || failed+=(prepare)
if (( ${#failed[@]} > 0 )); then
  echo "bench.sh: guard(s) failed: ${failed[*]}" >&2
  exit 1
fi
