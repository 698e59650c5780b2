/// \file micro_shuffle.cpp
/// §3.4 micro-benchmark: the LOD reorder cost. The paper measures 33 ms
/// (Mira) / 80 ms (Theta) to reshuffle 32K particles; this reports the
/// same operation on this machine across particle counts and heuristics,
/// the aggregator's two-run gather, and the per-particle binning scan the
/// aligned grid avoids.

#include <benchmark/benchmark.h>

#include "core/aggregation_grid.hpp"
#include "core/lod.hpp"
#include "workload/generators.hpp"

using namespace spio;

namespace {

ParticleBuffer make_particles(std::int64_t n) {
  return workload::uniform(Schema::uintah(), Box3::unit(),
                           static_cast<std::uint64_t>(n), 42);
}

void BM_LodShuffleRandom(benchmark::State& state) {
  const ParticleBuffer base = make_particles(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ParticleBuffer buf(base.schema());
    buf.append_bytes(base.bytes());
    state.ResumeTiming();
    lod_reorder(buf, 7, LodHeuristic::kRandom);
    benchmark::DoNotOptimize(buf.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LodShuffleRandom)->Arg(1 << 12)->Arg(32768)->Arg(1 << 17)->Arg(1 << 18)
    ->Arg(1 << 20)->Unit(benchmark::kMillisecond);

/// An aggregator's shape: its own records and one received payload, two
/// separate buffers, shuffled and gathered into one without concatenating
/// them first (2^18 records = the checkpoint benchmark's aggregator).
void BM_LodReorderTwoRuns(benchmark::State& state) {
  const std::int64_t half = state.range(0) / 2;
  const ParticleBuffer own = make_particles(half);
  const ParticleBuffer received = workload::uniform(
      Schema::uintah(), Box3::unit(), static_cast<std::uint64_t>(half), 43);
  RecordRuns runs(own.record_size());
  runs.add(own.bytes());
  runs.add(received.bytes());
  ParticleBuffer out(own.schema());
  for (auto _ : state) {
    lod_reorder(runs, out, 7, LodHeuristic::kRandom);
    benchmark::DoNotOptimize(out.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LodReorderTwoRuns)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

/// The index permutation alone, without the record gather.
void BM_LodPermutationRandom(benchmark::State& state) {
  for (auto _ : state) {
    auto order = lod_permutation(static_cast<std::uint64_t>(state.range(0)),
                                 7, LodHeuristic::kRandom);
    benchmark::DoNotOptimize(order.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LodPermutationRandom)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void BM_LodShuffleStride(benchmark::State& state) {
  const ParticleBuffer base = make_particles(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ParticleBuffer buf(base.schema());
    buf.append_bytes(base.bytes());
    state.ResumeTiming();
    lod_reorder(buf, 7, LodHeuristic::kStride);
    benchmark::DoNotOptimize(buf.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LodShuffleStride)->Arg(32768)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

/// The per-particle partition classification the aligned fast path skips.
void BM_ParticleBinningScan(benchmark::State& state) {
  const ParticleBuffer buf = make_particles(state.range(0));
  const AggregationGrid grid(Box3::unit(), {4, 4, 4});
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < buf.size(); ++i)
      acc += static_cast<std::uint64_t>(
          grid.partition_of_point(buf.position(i)));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParticleBinningScan)->Arg(32768)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
