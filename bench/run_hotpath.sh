#!/usr/bin/env sh
# Regenerate BENCH_hotpath.json, the committed machine-readable perf
# baseline for the write pipeline's hot paths (binning, exchange, LOD
# reorder, CRC, file write; micro kernels vs their pre-optimization
# references).
#
# Usage: bench/run_hotpath.sh [build-dir] [reps]
#
# Run from the repository root on an otherwise idle machine. The JSON is
# written to the repository root; commit it when refreshing the baseline.
#
# Three observability gates ride along (docs/OBSERVABILITY.md):
#   - the fresh results are compared against the committed baseline with
#     `spio_bench --compare`; any micro-kernel speedup more than 15%
#     below BENCH_hotpath.json (35% for the weather-riding absolute
#     stage MB/s rows) fails the script,
#   - the 8-rank stage run also emits a Chrome trace which is validated
#     with `spio_trace --check`,
#   - the flight recorder dumps a postmortem smoke bundle which is
#     validated with `spio_trace --check` as well.
#
# After the write-path run it regenerates and gates BENCH_readpath.json
# (read engine, including the SIMD kernel rows and the per-stage
# read-amplification gate) and BENCH_servepath.json (concurrent query
# service, including the server-side p99 and scan-amplification gates).
# A separate short serve run collects a detailed spatial access profile
# (SPIO_PROFILE — kept off the gated runs: the detailed tier takes a
# mutex per record, and the baselines measure the always-on tier only);
# the profile is schema-checked with `spio_trace --check` and its Zipf
# hot spot is rendered with `spio_heatmap`. It also runs
# the SIMD differential suite under both dispatch paths (`ctest -L simd`
# twice, the second with SPIO_SIMD=off forcing the scalar fallback), the
# query-planner differential suite (`ctest -L planner`),
# exercises the live-telemetry path (the serve run streams
# stats.spio.jsonl via SPIO_STATS; the stream is validated with
# `spio_trace --check` and rendered with `spio_top --replay`), then runs
# the service + read test suites under ThreadSanitizer
# (`ctest --preset tsan-serve`) as a final concurrency gate.
set -eu

BUILD_DIR="${1:-build}"
REPS="${2:-5}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH="$REPO_ROOT/$BUILD_DIR/tools/spio_bench"
TRACE_TOOL="$REPO_ROOT/$BUILD_DIR/tools/spio_trace"

if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not found; build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j --target spio_bench spio_trace" >&2
  exit 1
fi

BASELINE="$REPO_ROOT/BENCH_hotpath.json"
TRACE_JSON="$REPO_ROOT/$BUILD_DIR/hotpath_trace.json"
BUNDLE_DIR="$REPO_ROOT/$BUILD_DIR"

# Gate against the committed baseline when one exists; the same
# invocation rewrites it (the baseline is read before the overwrite).
COMPARE_ARGS=""
if [ -f "$BASELINE" ]; then
  COMPARE_ARGS="--compare $BASELINE"
else
  echo "no committed baseline at $BASELINE; generating without the gate" >&2
fi

# shellcheck disable=SC2086  # COMPARE_ARGS is intentionally word-split
"$BENCH" --hotpath --reps "$REPS" --json "$BASELINE" $COMPARE_ARGS \
  --trace "$TRACE_JSON" --dump-postmortem "$BUNDLE_DIR"

if [ -x "$TRACE_TOOL" ]; then
  "$TRACE_TOOL" --check "$TRACE_JSON"
  "$TRACE_TOOL" --check "$BUNDLE_DIR/postmortem.spio.json"
else
  echo "warning: $TRACE_TOOL not built; skipping artifact validation" >&2
fi

# Read-path baseline (BENCH_readpath.json): the fused filter kernels vs
# their references, plus cold/warm/range-filter/distributed end-to-end
# stages through the read engine. Gated the same way.
READ_BASELINE="$REPO_ROOT/BENCH_readpath.json"
READ_COMPARE_ARGS=""
if [ -f "$READ_BASELINE" ]; then
  READ_COMPARE_ARGS="--compare $READ_BASELINE"
else
  echo "no committed baseline at $READ_BASELINE; generating without the gate" >&2
fi

# shellcheck disable=SC2086  # READ_COMPARE_ARGS is intentionally word-split
"$BENCH" --readpath --reps "$REPS" --json "$READ_BASELINE" $READ_COMPARE_ARGS

# SIMD correctness gate: the differential suite (SIMD kernels pinned
# byte-for-byte to the scalar references) under the host's best ISA,
# then again with dispatch forced to the scalar fallback — the readpath
# baseline above is only meaningful if both paths produce identical
# bytes.
echo "== simd: differential suite, native dispatch =="
(cd "$REPO_ROOT/$BUILD_DIR" && ctest -L simd --output-on-failure)
echo "== simd: differential suite, SPIO_SIMD=off scalar fallback =="
(cd "$REPO_ROOT/$BUILD_DIR" && SPIO_SIMD=off ctest -L simd --output-on-failure)

# Planner correctness gate: the query-planning differential suite
# (pruned plans vs a serial oracle over the linear-scan reference plan,
# byte-identical results) — the readpath amplification and planning
# rows above are only meaningful if pruning never changes the bytes.
echo "== planner: differential suite, pruned planner =="
(cd "$REPO_ROOT/$BUILD_DIR" && ctest -L planner --output-on-failure)

# Query-service baseline (BENCH_servepath.json): closed-loop Zipfian
# hot-spot QPS at 1/4/16 clients plus the 16-client scaling factor
# through the concurrent query service. Gated the same way (but with a
# wider 35% band: closed-loop QPS rides scheduler weather).
SERVE_BASELINE="$REPO_ROOT/BENCH_servepath.json"
SERVE_COMPARE_ARGS=""
if [ -f "$SERVE_BASELINE" ]; then
  SERVE_COMPARE_ARGS="--compare $SERVE_BASELINE"
else
  echo "no committed baseline at $SERVE_BASELINE; generating without the gate" >&2
fi

# The serve run doubles as the live-telemetry smoke test
# (docs/OBSERVABILITY.md "Live telemetry"): the exporter streams
# stats.spio.jsonl while the bench serves, the stream is schema-checked
# with `spio_trace --check`, and `spio_top --replay` must render it.
STATS_JSONL="$REPO_ROOT/$BUILD_DIR/stats.spio.jsonl"
TOP_TOOL="$REPO_ROOT/$BUILD_DIR/tools/spio_top"

# shellcheck disable=SC2086  # SERVE_COMPARE_ARGS is intentionally word-split
SPIO_STATS="250:$STATS_JSONL" SPIO_SLO_MS=1000 \
  "$BENCH" --serve --reps "$REPS" --json "$SERVE_BASELINE" $SERVE_COMPARE_ARGS

if [ -x "$TRACE_TOOL" ]; then
  "$TRACE_TOOL" --check "$STATS_JSONL"
else
  echo "warning: $TRACE_TOOL not built; skipping stats validation" >&2
fi

# Access-profiler smoke (docs/OBSERVABILITY.md "Spatial access
# profiles"): a short ungated serve run with SPIO_PROFILE collects the
# Zipf hot-spot profile — skewed traffic is exactly what the heatmap
# exists to show. The profiler serializes per-file attribution at exit;
# the document must pass the same structural validator as every other
# spio artifact, then render as a heatmap.
SERVE_PROFILE="$REPO_ROOT/$BUILD_DIR/servepath_profile.spio.json"
HEATMAP_TOOL="$REPO_ROOT/$BUILD_DIR/tools/spio_heatmap"
SPIO_PROFILE="$SERVE_PROFILE" \
  "$BENCH" --serve --reps 1 --json "$REPO_ROOT/$BUILD_DIR/servepath_profiled.json"

if [ -x "$TRACE_TOOL" ]; then
  "$TRACE_TOOL" --check "$SERVE_PROFILE"
else
  echo "warning: $TRACE_TOOL not built; skipping profile validation" >&2
fi
if [ -x "$HEATMAP_TOOL" ]; then
  echo "== spio_heatmap: the serve run's Zipf hot-spot, bytes scanned =="
  "$HEATMAP_TOOL" "$SERVE_PROFILE" --metric scanned --width 48 --top 5
else
  echo "warning: $HEATMAP_TOOL not built; skipping heatmap render" >&2
fi
if [ -x "$TOP_TOOL" ]; then
  echo "== spio_top: replay of the serve run's telemetry stream =="
  "$TOP_TOOL" "$STATS_JSONL" --replay | tail -n 12
else
  echo "warning: $TOP_TOOL not built; skipping dashboard replay" >&2
fi

# Concurrency gate: the service + read suites must be TSan-clean. Uses
# the tsan preset's build tree, configuring/building it on first run.
echo "== tsan-serve: service + read suites under ThreadSanitizer =="
(cd "$REPO_ROOT" \
  && cmake --preset tsan >/dev/null \
  && cmake --build --preset tsan -j >/dev/null \
  && ctest --preset tsan-serve)
