#pragma once

/// \file workloads.hpp
/// The three benchmark workloads (see perfbench/README.md for why each
/// exists) and the per-layer metric table every traced run prints.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Four simmpi ranks checkpointing repeatedly through `write_dataset`.
void run_checkpoint_write(const Options& opt, Report& rep);
/// One client cycling 64 box queries against a warm prefix cache.
void run_box_warm(const Options& opt, Report& rep);
/// Four clients sending distinct queries through a `QueryService` whose
/// cache holds about a third of the dataset.
void run_serve_distinct(const Options& opt, Report& rep);

/// Write the read workloads' shared dataset into `dir` (the child-process
/// half of their set-up; `--workload write_read_dataset`).
void write_read_dataset(const std::filesystem::path& dir, std::uint64_t seed,
                        bool tiny);

/// Per-layer metrics (name -> value) of one traced run.
using LayerValues = std::map<std::string, double>;

/// Print every per-layer metric in the fixed table order. A metric the
/// workload did not set belongs to a layer it leaves idle: it is printed
/// as 0 and named in a note.
void emit_layer_metrics(Report& rep, const LayerValues& values);

}  // namespace perfbench
