#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "simd/simd_level.hpp"
#include "util/checksum.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full-precision JSON number (non-finite values have no JSON form).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// -- Report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    note(name + " was not finite; reported as 0");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, json_string(value));
}

void Report::stamp(const std::string& key, double value) {
  stamps_.emplace_back(key, json_number(value));
}

void Report::note(const std::string& text) { notes_.push_back(text); }

void Report::fail(const std::string& why) {
  correct_ = false;
  note("FAIL: " + why);
}

void Report::print() const {
  std::ostringstream fp;
  fp << "{";
  for (std::size_t i = 0; i < stamps_.size(); ++i)
    fp << (i ? ", " : "") << json_string(stamps_[i].first) << ": "
       << stamps_[i].second;
  fp << "}";
  std::cout << "fingerprint " << fp.str() << "\n";
  for (const std::string& n : notes_) std::cout << "note " << n << "\n";
  for (const Metric& m : metrics_)
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  const double ratio =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0.0;
  // failed_ratio is reported here and through the attempted/failed pair
  // of the result; it is 0 on a healthy tree, so it cannot be a gated
  // metric (gates are shares of a median).
  std::cout << "metric failed_ratio " << json_number(ratio) << " ratio\n";

  std::ostringstream js;
  js << "{\"correct\": " << (correct_ && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    js << (i ? ", " : "") << json_string(metrics_[i].name)
       << ": {\"value\": " << json_number(metrics_[i].value)
       << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  js << "}}";
  std::cout << js.str() << std::endl;
}

// -- order statistics -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double chunked_tail(const std::vector<double>& v, double q) {
  const auto chunk = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  const std::size_t chunks = std::max<std::size_t>(1, v.size() / chunk);
  std::vector<double> tails;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(c * v.size() / chunks);
    const auto e = v.begin() + static_cast<std::ptrdiff_t>((c + 1) * v.size() / chunks);
    tails.push_back(quantile(std::vector<double>(b, e), q));
  }
  return median(tails);
}

double median_group_rate(const std::vector<double>& seconds,
                         const std::vector<double>& amount, std::size_t group) {
  std::vector<double> rates;
  for (std::size_t i = 0; i + group <= seconds.size(); i += group) {
    double s = 0, a = 0;
    for (std::size_t k = i; k < i + group; ++k) {
      s += seconds[k];
      a += amount[k];
    }
    if (s > 0) rates.push_back(a / s);
  }
  return median(rates);
}

double median_window_rate(const std::vector<std::int64_t>& end_ns,
                          const std::vector<double>& amount,
                          std::int64_t start_ns, double window_s) {
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  std::int64_t last = start_ns;
  for (const std::int64_t t : end_ns) last = std::max(last, t);
  const auto windows = static_cast<std::size_t>((last - start_ns) / window_ns);
  std::vector<double> sums(windows, 0.0);
  for (std::size_t i = 0; i < end_ns.size(); ++i) {
    const auto w = static_cast<std::size_t>((end_ns[i] - start_ns) / window_ns);
    if (w < windows) sums[w] += amount[i];
  }
  for (double& s : sums) s /= window_s;
  return median(sums);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

namespace {

/// A `/proc/self/status` field in MB, or -1 when absent.
double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':')
      return std::stod(line.substr(len + 1)) * 1024.0 / 1e6;  // kB
  return -1;
}

}  // namespace

double peak_rss_mb() {
  const double hwm = status_mb("VmHWM");
  if (hwm >= 0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

void mark_measurement_start(Report& rep) {
  malloc_trim(0);  // hand set-up's freed memory back before the watermark
  rep.stamp("peak_rss_scope", reset_peak_rss() ? "measured phase" : "process");
  rep.stamp("rss_at_start_mb", status_mb("VmRSS"));
}

// -- host fingerprint -------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string fs_type(const std::filesystem::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void stamp_host(Report& rep, const std::filesystem::path& data_dir) {
  rep.stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep.stamp("cpu_model", cpu_model());
  rep.stamp("simd_level",
            spio::simd::level_name(spio::simd::active_level()));
  rep.stamp("compiler", compiler());
  rep.stamp("build_type", PERFBENCH_BUILD_TYPE);
  rep.stamp("data_fs", fs_type(data_dir));
}

std::uint64_t digest_words(const std::vector<std::uint64_t>& words) {
  return spio::crc64(std::as_bytes(std::span(words)));
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -- spans ----------------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kQueueWait: return "query_service.queue_wait";
    case Layer::kExec: return "query_service.exec";
    case Layer::kResolve: return "query_service.resolve";
    case Layer::kPlan: return "query_plan.plan";
    case Layer::kFetchWait: return "read_engine.fetch_wait";
    case Layer::kFilter: return "simd.filter";
    case Layer::kMerge: return "reader.merge";
    case Layer::kFetch: return "read_engine.fetch";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

void LayerCounters::add(const LayerCounters& o) {
  files_planned += o.files_planned;
  files_skipped += o.files_skipped;
  filter_calls += o.filter_calls;
  mirror_calls += o.mirror_calls;
  filter_records += o.filter_records;
  scanned_records += o.scanned_records;
  returned_records += o.returned_records;
  returned_bytes += o.returned_bytes;
  shrink_bytes += o.shrink_bytes;
  fetch_hit_us.insert(fetch_hit_us.end(), o.fetch_hit_us.begin(),
                      o.fetch_hit_us.end());
  fetch_miss_us.insert(fetch_miss_us.end(), o.fetch_miss_us.begin(),
                       o.fetch_miss_us.end());
}

int OpTrace::open(Layer layer, int parent) {
  spans_.push_back({op_, parent, layer, thread_tag(), now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void OpTrace::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1 = now_ns();
}

int OpTrace::add(Layer layer, int parent, std::int64_t t0, std::int64_t t1) {
  spans_.push_back({op_, parent, layer, thread_tag(), t0, t1});
  return static_cast<int>(spans_.size() - 1);
}

void Ledger::add(OpTrace& tr) {
  const std::vector<Span>& s = tr.spans();
  const std::size_t n = s.size();
  bool ok = n > 0 && s[0].layer == Layer::kOp && s[0].parent == -1;
  std::vector<std::int64_t> self(n, 0);
  for (std::size_t i = 0; ok && i < n; ++i) {
    if (s[i].t1 < s[i].t0) ok = false;
    self[i] = s[i].t1 - s[i].t0;
  }
  // Critical-path children must lie inside their parent and must not
  // overlap their siblings; then the self times partition the wall time.
  std::vector<std::vector<std::size_t>> kids(n);
  for (std::size_t i = 1; ok && i < n; ++i) {
    if (s[i].layer == Layer::kFetch) continue;
    const int p = s[i].parent;
    if (p < 0 || static_cast<std::size_t>(p) >= n ||
        s[static_cast<std::size_t>(p)].layer == Layer::kFetch) {
      ok = false;
      break;
    }
    const Span& ps = s[static_cast<std::size_t>(p)];
    if (s[i].t0 < ps.t0 || s[i].t1 > ps.t1) ok = false;
    kids[static_cast<std::size_t>(p)].push_back(i);
    self[static_cast<std::size_t>(p)] -= s[i].t1 - s[i].t0;
  }
  for (std::size_t p = 0; ok && p < n; ++p) {
    std::vector<std::size_t>& k = kids[p];
    std::sort(k.begin(), k.end(),
              [&](std::size_t a, std::size_t b) { return s[a].t0 < s[b].t0; });
    for (std::size_t j = 1; j < k.size(); ++j)
      if (s[k[j - 1]].t1 > s[k[j]].t0) ok = false;
  }
  std::int64_t self_sum = 0;
  for (std::size_t i = 0; ok && i < n; ++i) {
    if (s[i].layer == Layer::kFetch) continue;
    if (self[i] < 0) ok = false;
    self_sum += self[i];
  }
  if (ok && self_sum != s[0].t1 - s[0].t0) ok = false;

  std::lock_guard lk(mu_);
  if (!ok) {
    ++violations_;
    return;
  }
  ++ops_;
  wall_ns_ += static_cast<double>(s[0].t1 - s[0].t0);
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i].layer == Layer::kFetch) continue;
    const auto l = static_cast<std::size_t>(s[i].layer);
    self_ns_[l] += static_cast<double>(self[i]);
    total_ns_[l] += static_cast<double>(s[i].t1 - s[i].t0);
  }
  sum_.add(tr);
  // Keep the spans (bounded) for the trace file written at exit.
  constexpr std::size_t kMaxSpans = 2'000'000;
  if (spans_.size() + n <= kMaxSpans)
    spans_.insert(spans_.end(), s.begin(), s.end());
  else
    spans_dropped_ += n;
}

void Ledger::write_spans(const std::filesystem::path& path) const {
  std::lock_guard lk(mu_);
  std::ofstream out(path);
  if (!out) return;
  out << "{\"spans_dropped\": " << spans_dropped_ << ", \"traceEvents\": [";
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"op\": %llu, \"parent\": %d}}",
                  i ? "," : "", layer_name(sp.layer), sp.tid,
                  static_cast<double>(sp.t0 - base) / 1e3,
                  static_cast<double>(sp.t1 - sp.t0) / 1e3,
                  static_cast<unsigned long long>(sp.op), sp.parent);
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
