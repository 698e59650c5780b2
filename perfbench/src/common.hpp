#pragma once

/// \file common.hpp
/// Shared pieces of the spio end-to-end benchmark: options, the result
/// report, order statistics, the host fingerprint, and the span ledger
/// that the traced runs record around each public layer call.

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  /// Traced run: report the per-layer ledger instead of the end-to-end
  /// metrics.
  bool trace = false;
  /// Self-test size: tiny datasets and pools, a handful of operations.
  bool tiny = false;
  /// Scratch space for datasets; created and removed by the run.
  std::filesystem::path work_dir;
  /// Where the traced run writes its spans (Chrome trace-event JSON);
  /// empty = keep them in memory only.
  std::filesystem::path spans_out;
  /// > 0: a `ReadEngine` fetch hook throws on every Nth disk read, so
  /// the self-test can show failures are counted, not fatal.
  int fail_every = 0;
};

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Everything one run prints.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Host / settings / digest stamp, printed on the `fingerprint` line.
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  /// A line of explanation printed before the result (e.g. why a layer
  /// metric reads 0 on this workload).
  void note(const std::string& text);
  /// Mark the run incorrect and say why.
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return correct_; }
  /// Print the human-readable lines and, last, the one-line JSON result.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamps_;  // key, JSON value
  std::vector<std::string> notes_;
  bool correct_ = true;
};

// -- order statistics -------------------------------------------------------

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);
/// Tail quantile `q` (e.g. 0.99) of samples in completion order, as the
/// median over consecutive chunks just large enough to leave 10 samples
/// beyond `q` each (one chunk when there are fewer): a host stall then
/// moves one chunk's tail, not the run's.
double chunked_tail(const std::vector<double>& v, double q);

/// Median over consecutive groups of `group` operations of
/// (sum of `amount`) / (sum of `seconds`): a closed-loop client's rate,
/// robust to a short stall of the host.
double median_group_rate(const std::vector<double>& seconds,
                         const std::vector<double>& amount, std::size_t group);
/// Median over `window_s`-long windows after `start_ns` of the `amount`
/// completed (at `end_ns`) per second; the trailing partial window is
/// dropped. For concurrent clients.
double median_window_rate(const std::vector<std::int64_t>& end_ns,
                          const std::vector<double>& amount,
                          std::int64_t start_ns, double window_s);

/// Restart the kernel's peak-RSS watermark (VmHWM) at the current RSS,
/// so `peak_rss_mb` covers only what runs afterwards. Returns false when
/// the kernel does not allow it.
bool reset_peak_rss();
/// Peak resident set size (VmHWM) of this process, in MB (1e6 bytes).
double peak_rss_mb();
/// Called when set-up is over: return set-up's freed memory to the kernel
/// and restart the peak-RSS watermark, so peak_rss_mb is the measured
/// phase's peak; stamps which it is.
void mark_measurement_start(Report& rep);

/// Stamp nproc, CPU model, SIMD level, compiler, build type and the
/// filesystem type of `data_dir` into `rep`.
void stamp_host(Report& rep, const std::filesystem::path& data_dir);

/// CRC-64 of a sequence of 64-bit words (digests of pools and results).
std::uint64_t digest_words(const std::vector<std::uint64_t>& words);
std::string hex64(std::uint64_t v);

// -- span ledger --------------------------------------------------------------

/// The layer each span is charged to. Spans on the operation's critical
/// path (everything but `kFetch`, which runs on pool workers) nest inside
/// `kOp`; a layer's self time is its duration minus its children's.
enum class Layer : std::uint8_t {
  kOp = 0,     ///< the whole operation (wall time)
  kQueueWait,  ///< query_service: submit -> query function starts
  kExec,       ///< query_service: the query function itself
  kResolve,    ///< query_service: function returns -> client's get() returns
  kPlan,       ///< query_plan: Dataset::plan_query
  kFetchWait,  ///< read_engine: merging thread blocked on a fetch
  kFilter,     ///< simd: read_detail::filter_*_dispatch
  kMerge,      ///< reader: reserve, whole-file appends, final shrink
  kFetch,      ///< read_engine: Dataset::fetch_file_records on a pool worker
  kCount
};
constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

struct Span {
  std::uint64_t op = 0;
  std::int32_t parent = -1;  ///< index within the op's spans; -1 = root/off-path
  Layer layer = Layer::kOp;
  std::uint32_t tid = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Small per-thread id for span tracks.
std::uint32_t thread_tag();

/// Work counted at the layer boundaries of traced reads.
struct LayerCounters {
  std::uint64_t files_planned = 0;
  std::uint64_t files_skipped = 0;
  std::uint64_t filter_calls = 0;
  std::uint64_t mirror_calls = 0;
  std::uint64_t filter_records = 0;
  std::uint64_t scanned_records = 0;
  std::uint64_t returned_records = 0;
  std::uint64_t returned_bytes = 0;
  std::uint64_t shrink_bytes = 0;
  std::vector<double> fetch_hit_us;
  std::vector<double> fetch_miss_us;

  void add(const LayerCounters& o);
};

/// The spans and layer counters of one traced operation. Written by one
/// thread at a time (hand-offs go through the service's future), so it
/// needs no lock.
class OpTrace : public LayerCounters {
 public:
  explicit OpTrace(std::uint64_t op) : op_(op) {}

  /// Open a span now; returns its index.
  int open(Layer layer, int parent);
  void close(int index);
  /// Add a span with known bounds.
  int add(Layer layer, int parent, std::int64_t t0, std::int64_t t1);
  std::uint64_t op() const { return op_; }
  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t op_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction (exception
/// paths included).
class ScopedSpan {
 public:
  ScopedSpan(OpTrace& tr, Layer layer, int parent)
      : tr_(tr), index_(tr.open(layer, parent)) {}
  ~ScopedSpan() { tr_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  OpTrace& tr_;
  int index_;
};

/// Per-layer totals over many traced operations, plus every span kept in
/// memory until the run ends. Thread-safe.
class Ledger {
 public:
  /// Fold one finished operation in. Checks that its critical-path
  /// spans nest and that their self times plus the unattributed
  /// remainder sum to the operation's wall time; a violation is counted.
  void add(OpTrace& tr);

  std::uint64_t ops() const { return ops_; }
  double wall_ns() const { return wall_ns_; }
  double self_ns(Layer l) const { return self_ns_[static_cast<std::size_t>(l)]; }
  double total_ns(Layer l) const { return total_ns_[static_cast<std::size_t>(l)]; }
  /// Self time of `kOp` and `kExec`: time inside the operation that no
  /// named layer covers.
  double unattributed_ns() const { return self_ns(Layer::kOp) + self_ns(Layer::kExec); }
  std::uint64_t violations() const { return violations_; }
  const LayerCounters& counters() const { return sum_; }

  /// Write every kept span as Chrome trace-event JSON.
  void write_spans(const std::filesystem::path& path) const;

 private:
  mutable std::mutex mu_;
  std::uint64_t ops_ = 0;
  double wall_ns_ = 0;
  std::array<double, kLayerCount> self_ns_{};
  std::array<double, kLayerCount> total_ns_{};
  std::uint64_t violations_ = 0;
  LayerCounters sum_;
  std::vector<Span> spans_;
  std::uint64_t spans_dropped_ = 0;
};

}  // namespace perfbench
