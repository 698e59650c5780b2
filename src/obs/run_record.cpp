#include "obs/run_record.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace spio::obs {

namespace {

std::filesystem::path record_path(const std::filesystem::path& dir) {
  return dir / kRunRecordFile;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  SPIO_CHECK(f.good(), IoError,
             "cannot open run record '" << path.string() << "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void save(const std::filesystem::path& dir, const JsonValue& doc) {
  const auto path = record_path(dir);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  SPIO_CHECK(f.good(), IoError,
             "cannot write run record '" << path.string() << "'");
  f << doc.dump(2) << "\n";
  f.flush();
  SPIO_CHECK(f.good(), IoError,
             "failed writing run record '" << path.string() << "'");
}

JsonValue fresh_document() {
  JsonValue doc = JsonValue::object();
  doc.set("format", JsonValue::string("spio.run_record"));
  doc.set("version", JsonValue::number(std::int64_t{1}));
  return doc;
}

JsonValue phase_rows_to_json(const std::vector<RankPhaseRow>& rows) {
  JsonValue out = JsonValue::array();
  for (const RankPhaseRow& p : rows) {
    JsonValue row = JsonValue::object();
    row.set("rank", JsonValue::number(std::int64_t{p.rank}));
    for (const auto& [name, sec] : p.seconds)
      row.set(name, JsonValue::number(sec));
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

JsonValue metrics_to_json(const MetricsRegistry::Snapshot& snapshot) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, v] : snapshot.counters)
    out.set(name, JsonValue::number(v));
  for (const auto& [name, v] : snapshot.gauges)
    out.set(name, JsonValue::number(v));
  for (const auto& [name, h] : snapshot.histograms) {
    JsonValue hv = JsonValue::object();
    hv.set("count", JsonValue::number(h.count));
    hv.set("sum", JsonValue::number(h.sum));
    JsonValue buckets = JsonValue::array();
    for (const auto& [bound, n] : h.buckets) {
      JsonValue pair = JsonValue::array();
      pair.push_back(JsonValue::number(bound));
      pair.push_back(JsonValue::number(n));
      buckets.push_back(std::move(pair));
    }
    hv.set("buckets", std::move(buckets));
    out.set(name, std::move(hv));
  }
  return out;
}

void save_write_record(const std::filesystem::path& dataset_dir,
                       const WriteRunInfo& info,
                       const MetricsRegistry::Snapshot& metrics) {
  JsonValue doc = fresh_document();

  JsonValue w = JsonValue::object();
  w.set("ranks", JsonValue::number(std::int64_t{info.ranks}));
  w.set("schema_bytes", JsonValue::number(info.schema_bytes));
  w.set("partition_count",
        JsonValue::number(std::int64_t{info.partition_count}));

  JsonValue cfg = JsonValue::object();
  for (const auto& [k, v] : info.config) cfg.set(k, JsonValue::string(v));
  w.set("config", std::move(cfg));

  w.set("phase_seconds", phase_rows_to_json(info.phases));

  JsonValue totals = JsonValue::object();
  totals.set("particles_sent", JsonValue::number(info.totals.particles_sent));
  totals.set("bytes_sent", JsonValue::number(info.totals.bytes_sent));
  totals.set("particles_written",
             JsonValue::number(info.totals.particles_written));
  totals.set("bytes_written", JsonValue::number(info.totals.bytes_written));
  totals.set("files_written", JsonValue::number(info.totals.files_written));
  w.set("totals", std::move(totals));

  JsonValue lb = JsonValue::object();
  lb.set("partition_particles_max",
         JsonValue::number(info.load_balance.partition_particles_max));
  lb.set("partition_particles_mean",
         JsonValue::number(info.load_balance.partition_particles_mean));
  lb.set("imbalance", JsonValue::number(info.load_balance.imbalance));
  w.set("load_balance", std::move(lb));

  w.set("counters", metrics_to_json(metrics));

  JsonValue env = JsonValue::object();
  env.set("transport", JsonValue::string("simmpi"));
  env.set("threads_as_ranks", JsonValue::boolean(true));
  w.set("environment", std::move(env));

  doc.set("write", std::move(w));
  save(dataset_dir, doc);
}

void save_read_record(const std::filesystem::path& dataset_dir,
                      const ReadRunInfo& info,
                      const MetricsRegistry::Snapshot& metrics) {
  // Preserve the writer's section when one exists; a malformed existing
  // record is replaced rather than propagated.
  JsonValue doc = fresh_document();
  if (run_record_present(dataset_dir)) {
    try {
      doc = load_run_record(dataset_dir);
    } catch (const Error&) {
      doc = fresh_document();
    }
  }

  JsonValue r = JsonValue::object();
  r.set("ranks", JsonValue::number(std::int64_t{info.ranks}));
  r.set("levels", JsonValue::number(std::int64_t{info.levels}));

  r.set("phase_seconds", phase_rows_to_json(info.phases));

  JsonValue totals = JsonValue::object();
  totals.set("files_opened", JsonValue::number(info.totals.files_opened));
  totals.set("bytes_read", JsonValue::number(info.totals.bytes_read));
  totals.set("particles_scanned",
             JsonValue::number(info.totals.particles_scanned));
  totals.set("particles_returned",
             JsonValue::number(info.totals.particles_returned));
  totals.set("read_amplification",
             JsonValue::number(info.totals.read_amplification));
  r.set("totals", std::move(totals));

  r.set("counters", metrics_to_json(metrics));

  doc.set("read", std::move(r));
  save(dataset_dir, doc);
}

bool run_record_present(const std::filesystem::path& dataset_dir) {
  std::error_code ec;
  return std::filesystem::exists(record_path(dataset_dir), ec);
}

JsonValue load_run_record(const std::filesystem::path& dataset_dir) {
  JsonValue doc = JsonValue::parse(slurp(record_path(dataset_dir)));
  SPIO_CHECK(doc.is_object() && doc.contains("format") &&
                 doc.at("format").is_string() &&
                 doc.at("format").as_string() == "spio.run_record",
             FormatError,
             "'" << record_path(dataset_dir).string()
                 << "' is not an spio run record");
  return doc;
}

}  // namespace spio::obs
