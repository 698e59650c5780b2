#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>

#include "obs/run_record.hpp"
#include "util/error.hpp"
#include "util/temp_dir.hpp"

namespace spio::obs {
namespace {

WriteRunInfo sample_write_info() {
  WriteRunInfo info;
  info.ranks = 2;
  info.schema_bytes = 124;
  info.partition_count = 4;
  info.config["factor"] = "2x1x1";
  info.config["adaptive"] = "false";
  for (int r = 0; r < 2; ++r) {
    info.phases.push_back({r,
                           {{"setup", 0.5 + r},
                            {"meta_exchange", 0.25},
                            {"particle_exchange", 1.0},
                            {"reorder", 0.125},
                            {"file_io", 2.0},
                            {"metadata_io", 0.0625}}});
  }
  info.totals.particles_sent = 1000;
  info.totals.bytes_sent = 124000;
  info.totals.particles_written = 1000;
  info.totals.bytes_written = 124000;
  info.totals.files_written = 2;
  return info;
}

TEST(RunRecord, WriteRecordRoundTrips) {
  TempDir dir("spio-record");
  EXPECT_FALSE(run_record_present(dir.path()));

  MetricsRegistry reg;
  // A value above 2^53 checks that counters survive the JSON round trip
  // at full u64 precision.
  const std::uint64_t big = (std::uint64_t{1} << 61) + 3;
  reg.counter("writer.bytes_written").add(big);
  save_write_record(dir.path(), sample_write_info(), reg.snapshot());

  ASSERT_TRUE(run_record_present(dir.path()));
  const JsonValue doc = load_run_record(dir.path());
  EXPECT_EQ(doc.at("format").as_string(), "spio.run_record");
  EXPECT_EQ(doc.at("version").as_i64(), 1);

  const JsonValue& w = doc.at("write");
  EXPECT_EQ(w.at("ranks").as_i64(), 2);
  EXPECT_EQ(w.at("schema_bytes").as_u64(), 124u);
  EXPECT_EQ(w.at("partition_count").as_i64(), 4);
  EXPECT_EQ(w.at("config").at("factor").as_string(), "2x1x1");
  ASSERT_EQ(w.at("phase_seconds").size(), 2u);
  const JsonValue& p1 = w.at("phase_seconds").at(std::size_t{1});
  EXPECT_EQ(p1.at("rank").as_i64(), 1);
  EXPECT_DOUBLE_EQ(p1.at("setup").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(p1.at("file_io").as_double(), 2.0);
  // The row holds exactly the rank plus the producer's columns.
  EXPECT_EQ(p1.size(), 7u);
  EXPECT_EQ(w.at("totals").at("bytes_written").as_u64(), 124000u);
  EXPECT_EQ(w.at("counters").at("writer.bytes_written").as_u64(), big);
  EXPECT_TRUE(w.at("environment").at("threads_as_ranks").as_bool());
  EXPECT_FALSE(doc.contains("read"));
}

TEST(RunRecord, ReadRecordMergesIntoExistingWriteRecord) {
  TempDir dir("spio-record");
  MetricsRegistry reg;
  save_write_record(dir.path(), sample_write_info(), reg.snapshot());

  ReadRunInfo info;
  info.ranks = 2;
  info.levels = -1;
  info.phases.push_back({0, {{"file_io", 0.5}, {"exchange", 0.25}}});
  info.phases.push_back({1, {{"file_io", 0.75}, {"exchange", 0.125}}});
  info.totals.files_opened = 2;
  info.totals.bytes_read = 248000;
  info.totals.particles_scanned = 2000;
  info.totals.particles_returned = 1000;
  info.totals.read_amplification = 2.0;
  reg.counter("reader.bytes_read").add(248000);
  save_read_record(dir.path(), info, reg.snapshot());

  const JsonValue doc = load_run_record(dir.path());
  // The writer's section survives the merge.
  EXPECT_EQ(doc.at("write").at("ranks").as_i64(), 2);
  EXPECT_EQ(doc.at("write").at("totals").at("files_written").as_u64(), 2u);
  const JsonValue& r = doc.at("read");
  EXPECT_EQ(r.at("ranks").as_i64(), 2);
  EXPECT_EQ(r.at("levels").as_i64(), -1);
  ASSERT_EQ(r.at("phase_seconds").size(), 2u);
  EXPECT_DOUBLE_EQ(
      r.at("phase_seconds").at(std::size_t{1}).at("exchange").as_double(),
      0.125);
  EXPECT_DOUBLE_EQ(r.at("totals").at("read_amplification").as_double(), 2.0);
  EXPECT_EQ(r.at("counters").at("reader.bytes_read").as_u64(), 248000u);
}

TEST(RunRecord, ReadRecordAloneCreatesFreshDocument) {
  TempDir dir("spio-record");
  ReadRunInfo info;
  info.ranks = 1;
  MetricsRegistry reg;
  save_read_record(dir.path(), info, reg.snapshot());

  const JsonValue doc = load_run_record(dir.path());
  EXPECT_EQ(doc.at("format").as_string(), "spio.run_record");
  EXPECT_FALSE(doc.contains("write"));
  EXPECT_EQ(doc.at("read").at("ranks").as_i64(), 1);
}

TEST(RunRecord, ReadRecordReplacesMalformedExistingRecord) {
  TempDir dir("spio-record");
  {
    std::ofstream f(dir.path() / kRunRecordFile);
    f << "{not json";
  }
  ASSERT_TRUE(run_record_present(dir.path()));

  ReadRunInfo info;
  info.ranks = 3;
  MetricsRegistry reg;
  save_read_record(dir.path(), info, reg.snapshot());
  const JsonValue doc = load_run_record(dir.path());
  EXPECT_EQ(doc.at("read").at("ranks").as_i64(), 3);
}

TEST(RunRecord, LoadRejectsForeignJson) {
  TempDir dir("spio-record");
  {
    std::ofstream f(dir.path() / kRunRecordFile);
    f << "{\"format\": \"something.else\"}\n";
  }
  EXPECT_THROW(load_run_record(dir.path()), FormatError);
  EXPECT_THROW(load_run_record(dir.path() / "absent"), IoError);
}

TEST(RunRecord, MetricsToJsonRendersAllKinds) {
  MetricsRegistry reg;
  reg.counter("a.count").add(7);
  reg.gauge("a.ratio").set(0.5);
  reg.histogram("a.sizes").observe(100);
  reg.histogram("a.sizes").observe(200);

  const JsonValue j = metrics_to_json(reg.snapshot());
  EXPECT_EQ(j.at("a.count").as_u64(), 7u);
  EXPECT_DOUBLE_EQ(j.at("a.ratio").as_double(), 0.5);
  const JsonValue& h = j.at("a.sizes");
  EXPECT_EQ(h.at("count").as_u64(), 2u);
  EXPECT_EQ(h.at("sum").as_u64(), 300u);
  // 100 -> [64, 127], 200 -> [128, 255]: two non-empty buckets.
  ASSERT_EQ(h.at("buckets").size(), 2u);
  EXPECT_EQ(h.at("buckets").at(std::size_t{0}).at(std::size_t{0}).as_u64(),
            127u);
  EXPECT_EQ(h.at("buckets").at(std::size_t{0}).at(std::size_t{1}).as_u64(),
            1u);
}

}  // namespace
}  // namespace spio::obs
