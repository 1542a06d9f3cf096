// Tests for src/cli/cli.hpp: every ptmctl command end to end, in process
// (the network commands against an in-process ptmd on a unix socket).
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "store/record_log.hpp"
#include "transport/server.hpp"
#include "transport/socket.hpp"

namespace ptm {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_path_ = ::testing::TempDir() + "/ptm_cli_" +
                std::to_string(counter_++) + ".log";
    std::remove(log_path_.c_str());
  }
  void TearDown() override { std::remove(log_path_.c_str()); }

  /// Runs a command, expecting success; returns stdout.
  std::string run_ok(const std::vector<std::string>& args) {
    std::ostringstream out;
    const Status status = run_cli(args, out);
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return out.str();
  }

  std::string log_path_;
  static int counter_;
};

int CliTest::counter_ = 0;

TEST_F(CliTest, HelpAndEmptyPrintUsage) {
  EXPECT_NE(run_ok({"help"}).find("ptmctl"), std::string::npos);
  EXPECT_NE(run_ok({}).find("commands:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandErrors) {
  std::ostringstream out;
  const Status status = run_cli({"frobnicate"}, out);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(CliTest, FlagParsing) {
  const auto flags = parse_cli_flags({"--a", "1", "--b", "two"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->get_u64("a").value(), 1u);
  EXPECT_EQ(flags->get_string("b").value(), "two");

  EXPECT_FALSE(parse_cli_flags({"--dangling"}).has_value());
  EXPECT_FALSE(parse_cli_flags({"notaflag"}).has_value());
}

TEST_F(CliTest, ConfigFileWithFlagOverride) {
  const std::string cfg_path = ::testing::TempDir() + "/ptm_cli_cfg.cfg";
  {
    std::ofstream cfg(cfg_path);
    cfg << "s = 4\nf = 3\n";
  }
  const auto flags =
      parse_cli_flags({"--config", cfg_path, "--f", "2"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->get_u64("s").value(), 4u);      // from file
  EXPECT_DOUBLE_EQ(flags->get_double("f").value(), 2.0);  // overridden
  std::remove(cfg_path.c_str());
}

TEST_F(CliTest, GenerateInspectVolumePipeline) {
  const std::string gen_out = run_ok(
      {"generate", "--out", log_path_, "--t", "4", "--common", "300",
       "--location", "9", "--seed", "11"});
  EXPECT_NE(gen_out.find("4 point records"), std::string::npos);

  const std::string inspect = run_ok({"inspect", "--log", log_path_});
  EXPECT_NE(inspect.find("est volume"), std::string::npos);
  // 3 rules + 1 header + 4 data rows (one per period) for location 9.
  EXPECT_EQ(std::count(inspect.begin(), inspect.end(), '\n'), 8);

  const std::string volume = run_ok(
      {"volume", "--log", log_path_, "--location", "9", "--period", "2"});
  EXPECT_NE(volume.find("point volume at location 9"), std::string::npos);
}

TEST_F(CliTest, PersistentEstimateRecoversPlantedVolume) {
  run_ok({"generate", "--out", log_path_, "--t", "6", "--common", "800",
          "--location", "5", "--seed", "13"});
  const std::string est = run_ok(
      {"persistent", "--log", log_path_, "--location", "5"});
  // Parse the printed estimate and check it is near 800.
  const auto colon = est.find(": ");
  ASSERT_NE(colon, std::string::npos);
  const double value = std::strtod(est.c_str() + colon + 2, nullptr);
  EXPECT_NEAR(value, 800.0, 800.0 * 0.3);

  // The k-way variant also runs.
  const std::string kway = run_ok({"persistent", "--log", log_path_,
                                   "--location", "5", "--groups", "3"});
  EXPECT_NE(kway.find("3-way split"), std::string::npos);
}

TEST_F(CliTest, P2PEstimateRecoversPlantedVolume) {
  run_ok({"generate", "--out", log_path_, "--t", "5", "--common", "400",
          "--location", "1", "--location_b", "2", "--seed", "17"});
  const std::string est = run_ok(
      {"p2p", "--log", log_path_, "--from", "1", "--to", "2"});
  const auto colon = est.find(": ");
  ASSERT_NE(colon, std::string::npos);
  const double value = std::strtod(est.c_str() + colon + 2, nullptr);
  EXPECT_NEAR(value, 400.0, 400.0 * 0.35);
}

TEST_F(CliTest, CorridorEstimateAndParsing) {
  run_ok({"generate", "--out", log_path_, "--t", "5", "--common", "400",
          "--location", "1", "--location_b", "2", "--seed", "19"});
  const std::string est = run_ok(
      {"corridor", "--log", log_path_, "--locations", "1,2"});
  const auto colon = est.find(": ");
  ASSERT_NE(colon, std::string::npos);
  const double value = std::strtod(est.c_str() + colon + 2, nullptr);
  EXPECT_NEAR(value, 400.0, 400.0 * 0.35);

  // Parsing errors.
  std::ostringstream out;
  EXPECT_EQ(run_cli({"corridor", "--log", log_path_, "--locations", "1"},
                    out)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(run_cli({"corridor", "--log", log_path_, "--locations", "1,x"},
                    out)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(run_cli({"corridor", "--log", log_path_, "--locations", "1,9"},
                    out)
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(CliTest, QueryAgainstALiveDaemonMatchesTheLogCommand) {
  run_ok({"generate", "--out", log_path_, "--t", "5", "--common", "400",
          "--location", "1", "--location_b", "2", "--seed", "23"});
  transport::PtmdOptions options;
  options.endpoint.kind = transport::Endpoint::Kind::kUnix;
  options.endpoint.path = log_path_ + ".sock";
  options.idle_timeout_ms = 0;
  transport::PtmdServer server(options);
  ASSERT_TRUE(server.start().is_ok());
  auto contents = read_record_log(log_path_);
  ASSERT_TRUE(contents.has_value());
  for (const TrafficRecord& rec : contents->records) {
    ASSERT_TRUE(server.service().ingest(rec).is_ok());
  }
  const std::string endpoint = "unix:" + options.endpoint.path;

  // The estimate text after "<label>: ", up to the end of its line or the
  // log command's trailing "[s = ...]".
  const auto estimate_text = [](const std::string& out) {
    const std::size_t colon = out.find(": ");
    const std::size_t end = out.find_first_of("[\n", colon);
    std::string text = out.substr(colon + 2, end - colon - 2);
    while (!text.empty() && text.back() == ' ') text.pop_back();
    return text;
  };
  const std::string from_log =
      run_ok({"p2p", "--log", log_path_, "--from", "1", "--to", "2"});
  const std::vector<std::string> p2p{"--shape", "p2p", "--from", "1",
                                     "--to", "2", "--periods", "0,1,2,3,4"};
  std::vector<std::string> direct{"query", "--endpoint", endpoint};
  direct.insert(direct.end(), p2p.begin(), p2p.end());
  const std::string from_daemon = run_ok(direct);
  EXPECT_EQ(estimate_text(from_daemon), estimate_text(from_log));

  // The same daemon as a one-node cluster: the coordinator pushes the
  // first-level joins down to it and runs the second level itself.
  std::vector<std::string> clustered{"query", "--cluster", "1@" + endpoint};
  clustered.insert(clustered.end(), p2p.begin(), p2p.end());
  const std::string from_cluster = run_ok(clustered);
  EXPECT_EQ(estimate_text(from_cluster), estimate_text(from_log));
  EXPECT_NE(from_cluster.find("coverage: 5/5 periods present"),
            std::string::npos)
      << from_cluster;

  const std::string recent =
      run_ok({"query", "--endpoint", endpoint, "--shape", "recent",
              "--location", "1", "--window", "3"});
  EXPECT_NE(recent.find("recent-persistent: "), std::string::npos) << recent;

  std::ostringstream out;
  EXPECT_EQ(run_cli({"query", "--endpoint", endpoint, "--cluster",
                     "1@" + endpoint, "--shape", "recent", "--location", "1",
                     "--window", "3"},
                    out)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(run_cli({"query", "--endpoint", endpoint, "--shape", "median",
                     "--location", "1"},
                    out)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(run_cli({"query", "--endpoint", endpoint, "--shape", "volume",
                     "--location", "9", "--period", "0"},
                    out)
                .code(),
            ErrorCode::kNotFound);
  server.stop();
}

TEST_F(CliTest, VolumeMissingRecordIsNotFound) {
  run_ok({"generate", "--out", log_path_, "--t", "2", "--common", "10",
          "--location", "1"});
  std::ostringstream out;
  const Status status = run_cli(
      {"volume", "--log", log_path_, "--location", "1", "--period", "99"},
      out);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST_F(CliTest, PersistentUnknownLocationIsNotFound) {
  run_ok({"generate", "--out", log_path_, "--t", "2", "--common", "10",
          "--location", "1"});
  std::ostringstream out;
  const Status status =
      run_cli({"persistent", "--log", log_path_, "--location", "42"}, out);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST_F(CliTest, GenerateValidatesParameters) {
  std::ostringstream out;
  // common > volume_min is impossible traffic.
  const Status status = run_cli(
      {"generate", "--out", log_path_, "--common", "99999"}, out);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(CliTest, CompactWithRetention) {
  run_ok({"generate", "--out", log_path_, "--t", "9", "--common", "50",
          "--location", "4", "--seed", "23"});
  const std::string out = run_ok(
      {"compact", "--log", log_path_, "--keep", "3"});
  EXPECT_NE(out.find("3 live records kept"), std::string::npos);
  EXPECT_NE(out.find("6 dropped"), std::string::npos);

  // The surviving log holds only the newest 3 periods.
  const std::string inspect = run_ok({"inspect", "--log", log_path_});
  EXPECT_EQ(std::count(inspect.begin(), inspect.end(), '\n'), 3 + 4);
  EXPECT_NE(inspect.find(" 8 "), std::string::npos);  // newest period kept
}

TEST_F(CliTest, PrivacyCommandPrintsBothConventions) {
  const std::string out =
      run_ok({"privacy", "--n", "10000", "--f", "2", "--s", "3"});
  EXPECT_NE(out.find("deployed"), std::string::npos);
  EXPECT_NE(out.find("continuous"), std::string::npos);
  // The continuous ratio at (3, 2) is the paper's 1.9462.
  EXPECT_NE(out.find("1.9462"), std::string::npos);
}

TEST_F(CliTest, StatsPrintsServiceSnapshot) {
  run_ok({"generate", "--out", log_path_, "--t", "4", "--common", "100",
          "--location", "3", "--seed", "29"});
  const std::string out =
      run_ok({"stats", "--log", log_path_, "--shards", "4"});
  EXPECT_NE(out.find("4 shards"), std::string::npos);
  EXPECT_NE(out.find("records: 4"), std::string::npos);
  // 4 point-volume probes + 1 rolling persistent probe, all answerable.
  EXPECT_NE(out.find("(5/5 probe queries ok)"), std::string::npos);
  EXPECT_NE(out.find("latency: p50 <= "), std::string::npos);
}

TEST_F(CliTest, StatsIncludesOverloadAndDurabilityCounters) {
  run_ok({"generate", "--out", log_path_, "--t", "3", "--common", "100",
          "--location", "3", "--seed", "31"});
  const std::string out = run_ok({"stats", "--log", log_path_});
  // The snapshot surfaces the new robustness counters, even when idle.
  EXPECT_NE(out.find("overload: 0 shed, 0 deadline-exceeded"),
            std::string::npos);
  EXPECT_NE(out.find("durability: 0 archive appends"), std::string::npos);
}

TEST_F(CliTest, RecoverRebuildsServiceFromArchive) {
  run_ok({"generate", "--out", log_path_, "--t", "4", "--common", "100",
          "--location", "3", "--seed", "37"});
  const std::string out =
      run_ok({"recover", "--log", log_path_, "--shards", "4"});
  EXPECT_NE(out.find("recovered 4 records across 1 locations"),
            std::string::npos);
  // Per-location summary table plus the restored service's snapshot;
  // restore is not ingest, so the ingest counters stay zero while the
  // records are live.
  EXPECT_NE(out.find("location"), std::string::npos);
  EXPECT_NE(out.find("records: 4"), std::string::npos);
  EXPECT_NE(out.find("ingest:  0 ok"), std::string::npos);

  std::ostringstream err;
  EXPECT_EQ(run_cli({"recover", "--shards", "4"}, err).code(),
            ErrorCode::kNotFound);  // --log is required
  // A typo'd path is refused, not silently created as an empty archive.
  EXPECT_EQ(run_cli({"recover", "--log", log_path_ + ".absent"}, err).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(
      run_cli({"recover", "--log", log_path_, "--shards", "0"}, err).code(),
      ErrorCode::kInvalidArgument);
}

TEST_F(CliTest, SaturatedRecordsSurfaceTheSaturatedOutcome) {
  // A bitmap far too small for the traffic comes back all ones; the
  // estimators clamp and tag the result kSaturated.  That tag must survive
  // the whole reporting chain - EstimateSummary, format_estimate_summary,
  // and the inspect table - or an operator would trust a clamped number.
  {
    auto writer = RecordLogWriter::open(log_path_);
    ASSERT_TRUE(writer.has_value()) << writer.status().to_string();
    for (std::uint64_t period = 0; period < 4; ++period) {
      TrafficRecord rec;
      rec.location = 7;
      rec.period = period;
      rec.bits = Bitmap(64);
      for (std::size_t i = 0; i < 64; ++i) rec.bits.set(i);
      ASSERT_TRUE(writer->append(rec).is_ok());
    }
  }

  const std::string inspect = run_ok({"inspect", "--log", log_path_});
  EXPECT_NE(inspect.find("saturated"), std::string::npos);

  const std::string volume = run_ok(
      {"volume", "--log", log_path_, "--location", "7", "--period", "0"});
  EXPECT_NE(volume.find("(saturated"), std::string::npos);

  const std::string persistent =
      run_ok({"persistent", "--log", log_path_, "--location", "7"});
  EXPECT_NE(persistent.find("(saturated"), std::string::npos);
}

TEST_F(CliTest, PrivacyWarnsWhenRatioBelowOne) {
  const std::string out =
      run_ok({"privacy", "--n", "10000", "--f", "4", "--s", "2"});
  EXPECT_NE(out.find("WARNING"), std::string::npos);
}

}  // namespace
}  // namespace ptm
