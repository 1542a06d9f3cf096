// ingest.cpp - the `ingest` workload: stop-and-wait uplinks into one ptmd.
//
// One durable PtmdServer with default options (two ingest workers) and
// two client threads, each owning one SupervisedConnection and one
// UplinkClient - the path RSUs take today.  The clients replay unique
// (location, period) records over 256 locations, so every upload is a
// first accept: transport, query ingest and the archive append run on
// every op, while the cluster layer and the estimators stay idle.
//
// Set-up is a daemon restart: the benchmark writes the archive a running
// daemon would have left, the daemon restores it before it listens, and
// the clients connect and warm up.
#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ledger.hpp"
#include "store/archive.hpp"
#include "transport/connection.hpp"
#include "transport/server.hpp"
#include "transport/uplink.hpp"

namespace perfbench {
namespace {

namespace tp = ptm::transport;

constexpr std::uint64_t kLocations = 256;
constexpr std::size_t kClients = 2;
constexpr std::size_t kBodies = 256;
/// Records in the archive the daemon restores at start.  Writing and
/// restoring them is most of set-up, and it is work one thread does
/// without waiting on another; a host that deschedules vCPUs stretches
/// that far less than it stretches a chain of round trips.
constexpr std::uint64_t kRestoredRecords = 32 * kLocations;
/// Delivered during set-up so connections, allocator and caches are warm.
constexpr std::uint64_t kWarmupRecords = kLocations;
/// Record index of the first timed op.
constexpr std::uint64_t kFirstTimed = kRestoredRecords + kWarmupRecords;
/// Work per second of --seconds.  A run replays a fixed number of records
/// (about --seconds long on a 4-vCPU host) rather than stopping on the
/// clock: the daemon keeps every record it accepts, so a clock-bounded
/// run would hold more records - and a higher rss_mb - the faster ingest
/// gets.
constexpr std::uint64_t kRecordsPerSecond = 6000;
constexpr std::size_t kFloorSample = 2048;
constexpr auto kIoBudget = std::chrono::seconds(5);
const ptm::MacAddress kServerMac{0x02ULL << 40 | 0x53525600ULL};

std::uint64_t location_of(std::uint64_t k) { return 1 + k % kLocations; }
std::uint64_t period_of(std::uint64_t k) { return k / kLocations; }

enum OpStatus : std::uint8_t { kUnsent = 0, kAcked, kNacked, kError };

struct Client {
  Client(const tp::Endpoint& endpoint, std::size_t index)
      : conn(endpoint, tp::ConnectionTuning{}, nullptr, index + 1),
        uplink(conn, ptm::MacAddress{(0x02ULL << 40) | (0xBE00ULL + index)},
               kServerMac) {}
  tp::SupervisedConnection conn;
  tp::UplinkClient uplink;
};

/// One started daemon with connected, warmed-up clients.
class Rig {
 public:
  Rig(const Args& args, std::filesystem::path dir) : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
    corpus = std::make_unique<Corpus>(args.seed, kBodies);
    {
      auto archive = ptm::RecordArchive::open(archive_path(), {});
      if (!archive) throw std::runtime_error(archive.status().to_string());
      for (std::uint64_t k = 0; k < kRestoredRecords; ++k) {
        if (ptm::Status s =
                archive->append(corpus->record(location_of(k), period_of(k)));
            !s.is_ok()) {
          throw std::runtime_error("archive append: " + s.to_string());
        }
      }
    }
    tp::PtmdOptions options;
    options.endpoint.kind = tp::Endpoint::Kind::kUnix;
    options.endpoint.path = (dir_ / "ptmd.sock").string();
    options.archive_path = archive_path();
    server = std::make_unique<tp::PtmdServer>(std::move(options));
    if (ptm::Status s = server->start(); !s.is_ok()) {
      throw std::runtime_error("ptmd start: " + s.to_string());
    }
    if (server->restored_records() != kRestoredRecords) {
      throw std::runtime_error("ptmd restored " +
                               std::to_string(server->restored_records()) +
                               " records");
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.push_back(
          std::make_unique<Client>(server->options().endpoint, i));
      ptm::Status s = clients.back()->conn.ensure_connected(
          ptm::Deadline::after(kIoBudget));
      if (!s.is_ok()) throw std::runtime_error("connect: " + s.to_string());
    }
    for (std::uint64_t k = kRestoredRecords; k < kFirstTimed; ++k) {
      Client& client = *clients[k % kClients];
      auto reply = client.uplink.deliver(
          corpus->record(location_of(k), period_of(k)), {},
          ptm::Deadline::after(kIoBudget));
      if (!reply || !reply->acked) {
        throw std::runtime_error("warm-up upload was not acked");
      }
    }
  }

  ~Rig() {
    clients.clear();
    if (server) server->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] std::string archive_path() const {
    return (dir_ / "ptmd.archive").string();
  }

  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<tp::PtmdServer> server;
  std::vector<std::unique_ptr<Client>> clients;

 private:
  std::filesystem::path dir_;
};

/// Closed loop: both client threads take the next record index from a
/// shared counter, deliver it and wait for the verdict.
class IngestWorkload final : public Workload {
 public:
  explicit IngestWorkload(const Args& args)
      : args_(args),
        ops_(std::max<std::uint64_t>(args.seconds * kRecordsPerSecond,
                                     2 * kClients)),
        status_(ops_, kUnsent) {}

  std::uint64_t ops() const override { return ops_; }
  std::size_t threads() const override { return kClients; }

  void set_up(const std::filesystem::path& dir) override {
    rig_ = std::make_unique<Rig>(args_, dir);
    archive_before_ = archive_bytes();
  }
  void tear_down() override { rig_.reset(); }

  Window drive(std::uint64_t begin, std::uint64_t end, Clock::time_point start,
               const std::vector<SpanSink*>& sinks) override {
    std::atomic<std::uint64_t> next{begin};
    std::vector<Window> windows(kClients, Window(start, 1));
    std::vector<std::exception_ptr> errors(kClients);
    const auto loop = [&](std::size_t t) {
      Client& client = *rig_->clients[t];
      SpanSink* sink = sinks.empty() ? nullptr : sinks[t];
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) break;
        const std::uint64_t k = kFirstTimed + i;
        const auto op_start = Clock::now();
        const ptm::TrafficRecord record =
            rig_->corpus->record(location_of(k), period_of(k));
        if (client.conn.state() !=
            tp::SupervisedConnection::State::kConnected) {
          (void)client.conn.ensure_connected(ptm::Deadline::after(kIoBudget));
        }
        const auto t0 = Clock::now();
        auto reply =
            client.uplink.deliver(record, {}, ptm::Deadline::after(kIoBudget));
        const auto t1 = Clock::now();
        status_[i] = !reply ? kError : reply->acked ? kAcked : kNacked;
        if (status_[i] == kAcked) windows[t].add(0, t0, t1);
        if (sink != nullptr) {
          const std::uint64_t root = sink->reserve_id();
          sink->add("transport.deliver", root, k, t0, t1);
          sink->add(root, "op.ingest", 0, k, op_start, Clock::now());
        }
      }
    };
    {
      std::vector<std::jthread> threads;
      for (std::size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
          try {
            loop(t);
          } catch (...) {
            errors[t] = std::current_exception();
          }
        });
      }
    }
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    for (std::size_t t = 1; t < kClients; ++t) windows[0].merge(windows[t]);
    return std::move(windows[0]);
  }

  std::uint64_t counter_sum(const char* name) override {
    return rig_->server->telemetry().snapshot().counter_sum(name);
  }

  void layer_values(const Window& plain, const Window& traced,
                    const std::map<std::string, SpanStats>& spans,
                    Values& v) override {
    v["e2e.ingest_rps"] = plain.rate();
    v["e2e.ack_p50_us"] = percentile(plain.class_us[0], 0.5);
    v["e2e.ack_p90_us"] = percentile(plain.class_us[0], 0.9);
    v["e2e.ack_p99_us"] = percentile(plain.class_us[0], 0.99);
    const auto& deliver = spans.at("transport.deliver").durations_us;
    v["transport.deliver_us.p50"] = percentile(deliver, 0.5);
    v["transport.deliver_us.p99"] = percentile(deliver, 0.99);
    const double acked =
        static_cast<double>(plain.completed() + traced.completed());
    v["store.bytes_per_record"] =
        acked > 0 ? (archive_bytes() - archive_before_) / acked : 0.0;

    std::vector<ptm::TrafficRecord> sample;
    for (std::uint64_t k = kFirstTimed;
         k < kFirstTimed + std::min(ops_, kFloorSample); ++k) {
      sample.push_back(rig_->corpus->record(location_of(k), period_of(k)));
    }
    measure_floors(sample, {}, nullptr, ".", v);
    v["transport.wire_share"] =
        1.0 - v["query.ingest_durable_us"] / v["transport.deliver_us.p50"];
  }

  /// Checks every acked record is stored on the daemon byte-identically:
  /// one check per record.
  std::uint64_t check(bool plant_missing, RunResult& result) override {
    std::vector<std::vector<std::vector<std::uint8_t>>> stored(kLocations + 1);
    for (std::uint64_t loc = 0; loc <= kLocations; ++loc) {
      for (const ptm::TrafficRecord& rec :
           rig_->server->service().records_at_periods(loc, {})) {
        auto& slot = stored[loc];
        if (slot.size() <= rec.period) slot.resize(rec.period + 1);
        slot[rec.period] = rec.serialize();
      }
    }
    const auto is_stored = [&](std::uint64_t loc, std::uint64_t period) {
      return period < stored[loc].size() &&
             stored[loc][period] ==
                 rig_->corpus->record(loc, period).serialize();
    };
    result.attempted += ops_;
    std::uint64_t passed = 0;
    for (std::uint64_t i = 0; i < ops_; ++i) {
      const std::uint64_t k = kFirstTimed + i;
      const std::uint64_t loc = location_of(k);
      const std::uint64_t period = period_of(k);
      if (status_[i] != kAcked) {
        result.problems.push_back("record " + record_key(loc, period) +
                                  " was not acked");
      } else if (!is_stored(loc, period)) {
        result.problems.push_back("acked record " + record_key(loc, period) +
                                  " is not stored byte-identically");
      } else {
        ++passed;
      }
    }
    if (plant_missing) {
      // A record the benchmark believes acked but never sent: location 0
      // is outside the schedule.
      ++result.attempted;
      if (is_stored(0, 0)) {
        ++passed;
      } else {
        result.problems.push_back("planted record (0, 0) is missing");
      }
    }
    return passed;
  }

 private:
  [[nodiscard]] double archive_bytes() const {
    return static_cast<double>(
        std::filesystem::file_size(rig_->archive_path()));
  }

  Args args_;
  std::uint64_t ops_;
  std::vector<std::uint8_t> status_;  ///< by op
  std::unique_ptr<Rig> rig_;
  double archive_before_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_ingest(const Args& args) {
  return std::make_unique<IngestWorkload>(args);
}

}  // namespace perfbench
