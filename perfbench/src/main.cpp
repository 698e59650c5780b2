/// spio_perfbench: the spio end-to-end benchmark program.
///
///   spio_perfbench --workload <checkpoint_write|box_warm|serve_distinct>
///                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
///                  [--spans-out <file>] [--tiny] [--fail-every <n>]
///
/// Prints a `fingerprint` line (host, settings, digests), `note` and
/// `metric <name> <value> <unit>` lines, and last one JSON result line.
/// Exit code 0 only when every operation succeeded and matched its oracle.
/// perfbench/run.py builds this binary and is the usual way to run it.

#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// (name, unit) of every per-layer metric, in print order. Must match
/// the `per_layer` list of BENCHMARK.json.
constexpr const char* kLayerMetrics[][2] = {
    {"writer.setup_ms", "ms"},
    {"writer.meta_exchange_ms", "ms"},
    {"writer.particle_exchange_ms", "ms"},
    {"writer.reorder_ms", "ms"},
    {"writer.file_io_ms", "ms"},
    {"writer.metadata_io_ms", "ms"},
    {"writer.unattributed_ms", "ms"},
    {"simmpi.bytes_sent", "B/op"},
    {"lod.reorder_ms", "ms"},
    {"zone_map.build_ms", "ms"},
    {"checksum.crc_ms", "ms"},
    {"writer.bin_ms", "ms"},
    {"query_plan.plan_us", "us"},
    {"query_plan.files_planned", "count/op"},
    {"query_plan.files_skipped", "count/op"},
    {"read_engine.fetch_hit_us", "us"},
    {"read_engine.fetch_miss_us", "us"},
    {"read_engine.fetch_wait_ms", "ms"},
    {"read_engine.hit_ratio", "ratio"},
    {"read_engine.bytes_evicted", "B/op"},
    {"read_engine.singleflight_followers", "count/op"},
    {"simd.filter_ms", "ms"},
    {"simd.filter_mpps", "Mp/s"},
    {"simd.mirror_ratio", "ratio"},
    {"reader.merge_ms", "ms"},
    {"reader.bytes_copied", "B/op"},
    {"reader.read_amplification", "ratio"},
    {"query_service.queue_wait_ms", "ms"},
    {"query_service.exec_ms", "ms"},
    {"query_service.resolve_us", "us"},
    {"query_service.coalesced", "count"},
    {"op.wall_ms", "ms"},
    {"op.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// SPIO_* variables select kernels, planners, cache sizes and tracing;
/// a stray one would silently change the program being measured. If any
/// is set, re-execute with them removed (static initializers may already
/// have read them, so unsetting in-process is not enough).
void scrub_spio_env(char** argv) {
  std::vector<std::string> kept;
  bool found = false;
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "SPIO_", 5) == 0)
      found = true;
    else
      kept.emplace_back(*e);
  }
  if (!found) return;
  std::vector<char*> envp;
  for (std::string& s : kept) envp.push_back(s.data());
  envp.push_back(nullptr);
  execve("/proc/self/exe", argv, envp.data());
  std::cerr << "spio_perfbench: could not re-execute without SPIO_* "
               "variables: " << std::strerror(errno) << "\n";
  std::exit(2);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "spio_perfbench: " << why
            << "\nusage: spio_perfbench --workload "
               "<checkpoint_write|box_warm|serve_distinct> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--spans-out <file>] [--tiny] [--fail-every <n>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = value() != "0";
      else if (a == "--work-dir") o.work_dir = value();
      else if (a == "--spans-out") o.spans_out = value();
      else if (a == "--tiny") o.tiny = true;
      else if (a == "--fail-every") o.fail_every = std::stoi(value());
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

void emit_layer_metrics(Report& rep, const LayerValues& values) {
  std::string idle;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    if (it == values.end()) idle += std::string(idle.empty() ? "" : " ") + name;
    rep.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  if (!idle.empty())
    rep.note("idle on this workload (reported as 0): " + idle);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  scrub_spio_env(argv);
  // Keep freed memory in the heap instead of returning multi-MB query
  // results to the kernel (spio_bench does the same). With glibc's default
  // policy every large result is a fresh mmap whose first-touch page
  // faults cost ~40% of box_warm on a VM and vary run to run with the
  // host; the copy-out itself still shows in the measurements.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Options opt = parse(argc, argv);
  if (opt.workload == "write_read_dataset") {
    try {
      write_read_dataset(opt.work_dir, opt.seed, opt.tiny);
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "spio_perfbench: dataset write failed: " << e.what() << "\n";
      return 2;
    }
  }
  std::filesystem::create_directories(opt.work_dir);

  Report rep;
  rep.stamp("workload", opt.workload);
  rep.stamp("seed", static_cast<double>(opt.seed));
  rep.stamp("seconds", opt.seconds);
  rep.stamp("trace", opt.trace ? 1 : 0);
  rep.stamp("tiny", opt.tiny ? 1 : 0);
  rep.stamp("spio_env_cleared", "yes");
  rep.stamp("malloc_policy", "heap-retained (mmap and trim thresholds 1 GiB)");
  stamp_host(rep, opt.work_dir);
  try {
    if (opt.workload == "checkpoint_write")
      run_checkpoint_write(opt, rep);
    else if (opt.workload == "box_warm")
      run_box_warm(opt, rep);
    else if (opt.workload == "serve_distinct")
      run_serve_distinct(opt, rep);
    else
      usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    // Set-up itself failed: there is no result to print.
    std::cerr << "spio_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  rep.print();
  return rep.correct() && rep.failed == 0 ? 0 : 1;
}
