#include "cli/cli.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "cluster/coordinator.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/bootstrap.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "core/corridor_persistent.hpp"
#include "core/kway_persistent.hpp"
#include "core/linear_counting.hpp"
#include "core/p2p_persistent.hpp"
#include "core/point_persistent.hpp"
#include "core/privacy.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "crypto/keyfile.hpp"
#include "query/query_service.hpp"
#include "store/archive.hpp"
#include "store/record_log.hpp"
#include "traffic/workload.hpp"
#include "transport/auth.hpp"
#include "transport/connection.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace ptm {
namespace {

/// Records of one location, ordered by period.
Result<std::vector<Bitmap>> bitmaps_at(const std::vector<TrafficRecord>& all,
                                       std::uint64_t location) {
  std::map<std::uint64_t, Bitmap> by_period;
  for (const TrafficRecord& rec : all) {
    if (rec.location == location) by_period.emplace(rec.period, rec.bits);
  }
  if (by_period.empty()) {
    return Status{ErrorCode::kNotFound,
                  "no records for location " + std::to_string(location)};
  }
  std::vector<Bitmap> out;
  out.reserve(by_period.size());
  for (auto& [period, bits] : by_period) out.push_back(std::move(bits));
  return out;
}

/// A comma-separated list of unsigned integers ("7,8,9").
Result<std::vector<std::uint64_t>> parse_u64_list(const std::string& text,
                                                  const std::string& what) {
  std::vector<std::uint64_t> values;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') {
      return Status{ErrorCode::kInvalidArgument,
                    what + ": bad list token: " + token};
    }
    values.push_back(static_cast<std::uint64_t>(value));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

/// The optional `--key FILE --cert FILE` pair that authenticates a client
/// against a --require-auth daemon; nullopt when neither is given.
Result<std::optional<transport::AuthCredentials>> load_client_credentials(
    const Config& flags, const std::string& command) {
  auto key_path = flags.get_string_or("key", "");
  if (!key_path) return key_path.status();
  auto cert_path = flags.get_string_or("cert", "");
  if (!cert_path) return cert_path.status();
  if (key_path->empty() != cert_path->empty()) {
    return Status{ErrorCode::kInvalidArgument,
                  command + ": --key and --cert must be given together"};
  }
  if (key_path->empty()) return std::optional<transport::AuthCredentials>{};
  auto keys = load_keypair_file(*key_path);
  if (!keys) return keys.status();
  auto cert = load_certificate_file(*cert_path);
  if (!cert) return cert.status();
  return std::optional<transport::AuthCredentials>{
      transport::AuthCredentials{std::move(*keys), std::move(*cert)}};
}

/// Feeds every record of a log into the service.  Duplicate
/// (location, period) pairs are skipped - a log may legitimately contain
/// them after partial rewrites, and the pre-QueryService CLI silently kept
/// the first occurrence too.
Status ingest_log(QueryService& service,
                  const std::vector<TrafficRecord>& records) {
  for (const TrafficRecord& rec : records) {
    const Status st = service.ingest(rec);
    if (!st.is_ok() && st.code() != ErrorCode::kFailedPrecondition) return st;
  }
  return Status::ok();
}

/// Loads a record log into a fresh QueryService (the CLI's query backend).
Status load_service(const std::string& log_path, QueryService& service) {
  auto contents = read_record_log(log_path);
  if (!contents) return contents.status();
  return ingest_log(service, contents->records);
}

Status cmd_generate(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("out");
  if (!log_path) return log_path.status();
  auto seed = flags.get_u64_or("seed", 1);
  auto s = flags.get_u64_or("s", 3);
  auto f = flags.get_double_or("f", 2.0);
  auto t = flags.get_u64_or("t", 5);
  auto volume_min = flags.get_u64_or("volume_min", 2001);
  auto volume_max = flags.get_u64_or("volume_max", 10000);
  auto common = flags.get_u64_or("common", 500);
  auto location = flags.get_u64_or("location", 1);
  auto location_b = flags.get_u64_or("location_b", 0);  // 0 = point only
  for (const Status& st :
       {seed.status(), s.status(), f.status(), t.status(),
        volume_min.status(), volume_max.status(), common.status(),
        location.status(), location_b.status()}) {
    if (!st.is_ok()) return st;
  }
  if (*t < 1 || *s < 1 || *f <= 0.0 || *volume_min < 1 ||
      *volume_min > *volume_max || *common > *volume_min) {
    return {ErrorCode::kInvalidArgument,
            "generate: need t,s >= 1, f > 0, 1 <= volume_min <= volume_max, "
            "common <= volume_min"};
  }

  Xoshiro256 rng(*seed);
  EncodingParams encoding;
  encoding.s = static_cast<std::size_t>(*s);
  const auto fleet =
      make_vehicles(static_cast<std::size_t>(*common), encoding.s, rng);

  auto writer = RecordLogWriter::open(*log_path);
  if (!writer) return writer.status();

  auto write_all = [&](std::uint64_t loc,
                       const std::vector<Bitmap>& bitmaps) -> Status {
    for (std::size_t period = 0; period < bitmaps.size(); ++period) {
      TrafficRecord rec;
      rec.location = loc;
      rec.period = period;
      rec.bits = bitmaps[period];
      if (Status st = writer->append(rec); !st.is_ok()) return st;
    }
    return Status::ok();
  };

  if (*location_b == 0) {
    const auto volumes = draw_period_volumes(static_cast<std::size_t>(*t),
                                             *volume_min, *volume_max, rng);
    const auto records =
        generate_point_records(volumes, fleet, *location, *f, encoding, rng);
    if (Status st = write_all(*location, records); !st.is_ok()) return st;
    out << "wrote " << records.size() << " point records for location "
        << *location << " to " << *log_path << " (common=" << *common
        << ")\n";
  } else {
    const auto volumes_a = draw_period_volumes(static_cast<std::size_t>(*t),
                                               *volume_min, *volume_max, rng);
    const auto volumes_b = draw_period_volumes(static_cast<std::size_t>(*t),
                                               *volume_min, *volume_max, rng);
    const auto records =
        generate_p2p_records(volumes_a, volumes_b, fleet, *location,
                             *location_b, *f, encoding, rng);
    if (Status st = write_all(*location, records.at_l); !st.is_ok()) return st;
    if (Status st = write_all(*location_b, records.at_l_prime); !st.is_ok()) {
      return st;
    }
    out << "wrote " << 2 * records.at_l.size()
        << " p2p records for locations " << *location << " and "
        << *location_b << " to " << *log_path << " (common=" << *common
        << ")\n";
  }
  return Status::ok();
}

Status cmd_inspect(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto contents = read_record_log(*log_path);
  if (!contents) return contents.status();

  TableWriter table({"location", "period", "m", "ones", "est volume",
                     "outcome"});
  for (const TrafficRecord& rec : contents->records) {
    const CardinalityEstimate est = estimate_cardinality(rec.bits);
    table.add_row({TableWriter::fmt(std::uint64_t{rec.location}),
                   TableWriter::fmt(std::uint64_t{rec.period}),
                   TableWriter::fmt(std::uint64_t{rec.m()}),
                   TableWriter::fmt(std::uint64_t{rec.bits.count_ones()}),
                   TableWriter::fmt(est.value, 1),
                   estimate_outcome_name(est.outcome)});
  }
  table.print(out);
  if (contents->truncated_tail) {
    out << "warning: log tail skipped (" << contents->tail_error << ")\n";
  }
  return Status::ok();
}

Status cmd_volume(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto location = flags.get_u64("location");
  if (!location) return location.status();
  auto period = flags.get_u64("period");
  if (!period) return period.status();

  QueryService service;
  if (Status st = load_service(*log_path, service); !st.is_ok()) return st;
  const QueryResponse resp =
      service.run(QueryRequest{PointVolumeQuery{*location, *period}});
  if (!resp.ok()) return resp.status;
  out << "point volume at location " << *location << ", period " << *period
      << ": " << format_estimate_summary(resp.summary) << "\n";
  return Status::ok();
}

Status cmd_persistent(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto location = flags.get_u64("location");
  if (!location) return location.status();
  auto groups = flags.get_u64_or("groups", 2);
  if (!groups) return groups.status();

  auto contents = read_record_log(*log_path);
  if (!contents) return contents.status();
  QueryService service;
  if (Status st = ingest_log(service, contents->records); !st.is_ok()) {
    return st;
  }
  const std::vector<std::uint64_t> periods = service.periods_at(*location);
  if (periods.empty()) {
    return {ErrorCode::kNotFound,
            "no records for location " + std::to_string(*location)};
  }

  auto ci_resamples = flags.get_u64_or("ci", 0);  // 0 = no interval
  if (!ci_resamples) return ci_resamples.status();

  if (*groups == 2) {
    const QueryResponse resp =
        service.run(QueryRequest{PointPersistentQuery{*location, periods}});
    if (!resp.ok()) return resp.status;
    out << "point persistent at location " << *location << " over "
        << periods.size()
        << " periods: " << format_estimate_summary(resp.summary) << "\n";
    if (*ci_resamples > 0) {
      auto bitmaps = bitmaps_at(contents->records, *location);
      if (!bitmaps) return bitmaps.status();
      BootstrapOptions boot;
      boot.resamples = static_cast<std::size_t>(*ci_resamples);
      auto interval = estimate_point_persistent_with_ci(*bitmaps, boot);
      if (!interval) return interval.status();
      out << "  95% bootstrap CI: ["
          << TableWriter::fmt(interval->lower, 1) << ", "
          << TableWriter::fmt(interval->upper, 1) << "] ("
          << boot.resamples << " resamples)\n";
    }
  } else {
    // The k-way split is an estimator-level ablation, not one of the
    // service's query shapes; it still prints through the one formatter.
    auto bitmaps = bitmaps_at(contents->records, *location);
    if (!bitmaps) return bitmaps.status();
    auto est = estimate_point_persistent_kway(
        *bitmaps, static_cast<std::size_t>(*groups));
    if (!est) return est.status();
    out << "point persistent at location " << *location << " over "
        << bitmaps->size() << " periods (" << *groups << "-way split): "
        << format_estimate_summary(summarize_estimate(*est)) << "\n";
  }
  return Status::ok();
}

Status cmd_p2p(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto from = flags.get_u64("from");
  if (!from) return from.status();
  auto to = flags.get_u64("to");
  if (!to) return to.status();
  auto s = flags.get_u64_or("s", 3);
  if (!s) return s.status();

  QueryServiceOptions service_options;
  service_options.s = static_cast<std::size_t>(*s);
  QueryService service(service_options);
  if (Status st = load_service(*log_path, service); !st.is_ok()) return st;
  const std::vector<std::uint64_t> periods = service.periods_at(*from);
  if (periods.empty()) {
    return {ErrorCode::kNotFound,
            "no records for location " + std::to_string(*from)};
  }

  P2PPersistentQuery query;
  query.location_a = *from;
  query.location_b = *to;
  query.periods = periods;
  const QueryResponse resp = service.run(QueryRequest{std::move(query)});
  if (!resp.ok()) return resp.status;
  out << "p2p persistent between " << *from << " and " << *to << " over "
      << periods.size()
      << " periods: " << format_estimate_summary(resp.summary)
      << " [s = " << *s << "]\n";
  return Status::ok();
}

Status cmd_corridor(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto locations_raw = flags.get_string("locations");
  if (!locations_raw) return locations_raw.status();
  auto s = flags.get_u64_or("s", 3);
  if (!s) return s.status();

  auto parsed = parse_u64_list(*locations_raw, "corridor");
  if (!parsed) return parsed.status();
  const std::vector<std::uint64_t> locations = std::move(*parsed);
  if (locations.size() < 2) {
    return {ErrorCode::kInvalidArgument,
            "corridor needs at least two --locations"};
  }

  QueryServiceOptions service_options;
  service_options.s = static_cast<std::size_t>(*s);
  QueryService service(service_options);
  if (Status st = load_service(*log_path, service); !st.is_ok()) return st;
  const std::vector<std::uint64_t> periods =
      service.periods_at(locations.front());
  if (periods.empty()) {
    return {ErrorCode::kNotFound,
            "no records for location " + std::to_string(locations.front())};
  }

  CorridorQuery query;
  query.locations = locations;
  query.periods = periods;
  const QueryResponse resp = service.run(QueryRequest{std::move(query)});
  if (!resp.ok()) return resp.status;
  const auto est = resp.as<CorridorPersistentEstimate>();
  out << "corridor persistent through " << locations.size()
      << " locations: " << format_estimate_summary(resp.summary)
      << " [ln B = " << TableWriter::fmt(est->log_b, 8) << "]\n";
  return Status::ok();
}

Status cmd_compact(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto keep = flags.get_u64_or("keep", 0);  // 0 = keep everything
  if (!keep) return keep.status();

  ArchiveOptions options;
  options.max_periods_per_location = static_cast<std::size_t>(*keep);
  auto archive = RecordArchive::open(*log_path, options);
  if (!archive) return archive.status();
  auto dropped = archive->compact();
  if (!dropped) return dropped.status();
  out << "compacted " << *log_path << ": " << archive->live_records()
      << " live records kept";
  if (*keep > 0) out << " (retention: last " << *keep << " per location)";
  out << ", " << *dropped << " dropped\n";
  return Status::ok();
}

Status cmd_privacy(const Config& flags, std::ostream& out) {
  auto n_prime = flags.get_u64_or("n", 10000);
  auto f = flags.get_double_or("f", 2.0);
  auto s = flags.get_u64_or("s", 3);
  for (const Status& st : {n_prime.status(), f.status(), s.status()}) {
    if (!st.is_ok()) return st;
  }
  if (*f <= 0.0 || *s < 1 || *n_prime < 1) {
    return {ErrorCode::kInvalidArgument, "privacy: need n,f,s positive"};
  }
  const auto m_planned =
      plan_bitmap_size(static_cast<double>(*n_prime), *f);
  const PrivacyPoint planned = privacy_point(
      static_cast<double>(*n_prime), static_cast<double>(m_planned),
      static_cast<std::size_t>(*s));
  const PrivacyPoint continuous =
      privacy_point(static_cast<double>(*n_prime),
                    *f * static_cast<double>(*n_prime),
                    static_cast<std::size_t>(*s));

  out << "privacy analysis for n' = " << *n_prime << ", f = " << *f
      << ", s = " << *s << "\n"
      << "  deployed (m' = " << m_planned << ", Eq. 2 rounding):\n"
      << "    noise p = " << TableWriter::fmt(planned.noise, 4)
      << ", information p'-p = " << TableWriter::fmt(planned.information, 4)
      << ", ratio = " << TableWriter::fmt(planned.ratio, 4) << "\n"
      << "  continuous (m' = f*n', the Table II convention):\n"
      << "    noise p = " << TableWriter::fmt(continuous.noise, 4)
      << ", information p'-p = "
      << TableWriter::fmt(continuous.information, 4)
      << ", ratio = " << TableWriter::fmt(continuous.ratio, 4) << "\n";
  if (planned.ratio < 1.0) {
    out << "  WARNING: ratio < 1 - a tracker's information exceeds the "
           "noise; increase s or decrease f.\n";
  }
  return Status::ok();
}

Status cmd_recover(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto shards = flags.get_u64_or("shards", 16);
  if (!shards) return shards.status();
  if (*shards < 1) {
    return {ErrorCode::kInvalidArgument, "recover: need shards >= 1"};
  }

  // The crash-recovery path a restarted server runs: open the archive
  // (healing any torn tail), attach it, rebuild the store from it.  An
  // absent file is refused rather than created - "recovered 0 records"
  // from a typo'd path would read as data loss.
  if (std::FILE* probe = std::fopen(log_path->c_str(), "rb")) {
    std::fclose(probe);
  } else {
    return {ErrorCode::kNotFound, "recover: no archive at " + *log_path};
  }
  auto archive = RecordArchive::open(*log_path, ArchiveOptions{});
  if (!archive) return archive.status();

  QueryServiceOptions service_options;
  service_options.n_shards = static_cast<std::size_t>(*shards);
  QueryService service(service_options);
  service.attach_durability(*archive);
  auto restored = service.restore_from_archive();
  if (!restored) return restored.status();

  const std::vector<std::uint64_t> locations = archive->locations();
  out << "recovered " << *restored << " records across " << locations.size()
      << " locations from " << *log_path << "\n";
  TableWriter table({"location", "periods"});
  for (std::uint64_t location : locations) {
    table.add_row({TableWriter::fmt(std::uint64_t{location}),
                   TableWriter::fmt(
                       std::uint64_t{archive->periods_at(location)})});
  }
  table.print(out);
  out << service.metrics().to_string();
  return Status::ok();
}

/// The probe batch `stats` and `metrics` run so the latency histogram and
/// the per-shard query counters have something to show: one point-volume
/// query per record, plus a rolling persistent query per location that
/// holds at least two periods.  Returns {ok, total} probe counts.
Result<std::pair<std::size_t, std::size_t>> run_probe_queries(
    QueryService& service, const std::string& log_path) {
  std::vector<QueryRequest> requests;
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_location;
  auto contents = read_record_log(log_path);
  if (!contents) return contents.status();
  for (const TrafficRecord& rec : contents->records) {
    requests.emplace_back(PointVolumeQuery{rec.location, rec.period});
    by_location[rec.location].push_back(rec.period);
  }
  for (const auto& [location, periods] : by_location) {
    if (periods.size() >= 2) {
      requests.emplace_back(RecentPersistentQuery{location, 2});
    }
  }
  const auto responses = service.run_batch(requests);
  std::size_t ok = 0;
  for (const QueryResponse& resp : responses) ok += resp.ok() ? 1 : 0;
  return std::make_pair(ok, responses.size());
}

Status cmd_stats(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto shards = flags.get_u64_or("shards", 16);
  if (!shards) return shards.status();
  auto s = flags.get_u64_or("s", 3);
  if (!s) return s.status();
  if (*shards < 1) {
    return {ErrorCode::kInvalidArgument, "stats: need shards >= 1"};
  }

  QueryServiceOptions service_options;
  service_options.s = static_cast<std::size_t>(*s);
  service_options.n_shards = static_cast<std::size_t>(*shards);
  QueryService service(service_options);
  if (Status st = load_service(*log_path, service); !st.is_ok()) return st;

  auto probed = run_probe_queries(service, *log_path);
  if (!probed) return probed.status();

  out << "query service stats for " << *log_path << " (" << probed->first
      << "/" << probed->second << " probe queries ok)\n"
      << service.metrics().to_string();
  return Status::ok();
}

Status cmd_metrics(const Config& flags, std::ostream& out) {
  auto log_path = flags.get_string("log");
  if (!log_path) return log_path.status();
  auto shards = flags.get_u64_or("shards", 16);
  if (!shards) return shards.status();
  auto s = flags.get_u64_or("s", 3);
  if (!s) return s.status();
  auto format = flags.get_string_or("format", "prometheus");
  if (!format) return format.status();
  if (*shards < 1) {
    return {ErrorCode::kInvalidArgument, "metrics: need shards >= 1"};
  }
  if (*format != "prometheus" && *format != "json" && *format != "text") {
    return {ErrorCode::kInvalidArgument,
            "metrics: --format must be prometheus, json, or text"};
  }

  QueryServiceOptions service_options;
  service_options.s = static_cast<std::size_t>(*s);
  service_options.n_shards = static_cast<std::size_t>(*shards);
  QueryService service(service_options);
  if (Status st = load_service(*log_path, service); !st.is_ok()) return st;
  if (auto probed = run_probe_queries(service, *log_path); !probed) {
    return probed.status();
  }

  // One snapshot feeds whichever exporter was asked for, so the three
  // formats always describe the same instant.
  const TelemetrySnapshot snapshot = service.telemetry().snapshot();
  if (*format == "prometheus") {
    out << to_prometheus(snapshot);
  } else if (*format == "json") {
    out << to_json(snapshot) << "\n";
  } else {
    out << service.metrics().to_string();
  }
  return Status::ok();
}

/// Formats a trace/span id the way the span dump does: 16 hex digits.
std::string format_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

Status cmd_trace(const Config& flags, std::ostream& out) {
  auto dump_path = flags.get_string("spans");
  if (!dump_path) return dump_path.status();
  auto spans = load_span_dump(*dump_path);
  if (!spans) return spans.status();

  auto id_raw = flags.get_string_or("id", "");
  if (!id_raw) return id_raw.status();
  if (id_raw->empty()) {
    // No id: list every trace in the dump, oldest first span wins the row
    // order.  Untraced spans (trace_id 0) are summarized as one line.
    std::vector<std::uint64_t> order;
    std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> stats;
    for (const Span& span : *spans) {
      auto [it, inserted] = stats.try_emplace(span.trace_id,
                                              std::pair<std::size_t,
                                                        std::size_t>{0, 0});
      if (inserted) order.push_back(span.trace_id);
      ++it->second.first;
      if (!span.ok) ++it->second.second;
    }
    TableWriter table({"trace", "spans", "failed"});
    for (std::uint64_t trace_id : order) {
      const auto& [count, failed] = stats.at(trace_id);
      table.add_row({trace_id == 0 ? "(untraced)" : format_id(trace_id),
                     TableWriter::fmt(std::uint64_t{count}),
                     TableWriter::fmt(std::uint64_t{failed})});
    }
    out << spans->size() << " spans in " << *dump_path << "\n";
    table.print(out);
    return Status::ok();
  }

  char* end = nullptr;
  const unsigned long long trace_id = std::strtoull(id_raw->c_str(), &end,
                                                    16);
  if (end == id_raw->c_str() || *end != '\0') {
    return {ErrorCode::kInvalidArgument,
            "trace: --id must be a hex trace id: " + *id_raw};
  }

  // The per-trace timeline, in logical-clock order (ties keep dump order,
  // which is per-node recording order).
  std::vector<const Span*> timeline;
  for (const Span& span : *spans) {
    if (span.trace_id == trace_id) timeline.push_back(&span);
  }
  if (timeline.empty()) {
    return {ErrorCode::kNotFound,
            "trace: no spans for trace " + *id_raw + " in " + *dump_path};
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Span* a, const Span* b) {
                     return a->start_step < b->start_step;
                   });
  out << "trace " << format_id(trace_id) << ": " << timeline.size()
      << " spans\n";
  TableWriter table({"step", "node", "span", "id", "parent", "ns", "ok"});
  for (const Span* span : timeline) {
    table.add_row({TableWriter::fmt(std::uint64_t{span->start_step}),
                   span->node, span->name, format_id(span->span_id),
                   span->parent_span_id == 0
                       ? "-"
                       : format_id(span->parent_span_id),
                   TableWriter::fmt(std::uint64_t{span->duration_ns}),
                   span->ok ? "yes" : "NO"});
  }
  table.print(out);
  return Status::ok();
}

}  // namespace

Result<Config> parse_cli_flags(const std::vector<std::string>& args) {
  Config flags;
  std::size_t i = 0;
  // --config must be honored first so explicit flags override it.
  std::vector<std::pair<std::string, std::string>> pairs;
  while (i < args.size()) {
    const std::string& token = args[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      return Status{ErrorCode::kInvalidArgument,
                    "expected --flag, got: " + token};
    }
    if (i + 1 >= args.size()) {
      return Status{ErrorCode::kInvalidArgument,
                    "flag missing a value: " + token};
    }
    pairs.emplace_back(token.substr(2), args[i + 1]);
    i += 2;
  }
  for (const auto& [key, value] : pairs) {
    if (key == "config") {
      auto loaded = Config::load(value);
      if (!loaded) return loaded.status();
      for (const auto& [k, v] : loaded->entries()) flags.set(k, v);
    }
  }
  for (const auto& [key, value] : pairs) {
    if (key != "config") flags.set(key, value);
  }
  return flags;
}

namespace {

/// Sum of every `"name":"<name>"` counter occurrence in an obs/export.hpp
/// JSON document (label families appear once per label set).  A missing
/// counter sums to 0 - absence is healthy for e.g. protocol errors.
std::uint64_t sum_json_counter(const std::string& json,
                               const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::string value_key = "\"value\":";
  std::uint64_t total = 0;
  std::size_t at = 0;
  while ((at = json.find(needle, at)) != std::string::npos) {
    const std::size_t v = json.find(value_key, at);
    if (v == std::string::npos) break;
    total += std::strtoull(json.c_str() + v + value_key.size(), nullptr, 10);
    at = v;
  }
  return total;
}

}  // namespace

Status cmd_ping(const Config& flags, std::ostream& out) {
  auto endpoint_text = flags.get_string("endpoint");
  if (!endpoint_text) return endpoint_text.status();
  auto count = flags.get_u64_or("count", 3);
  if (!count) return count.status();
  auto timeout_ms = flags.get_u64_or("timeout_ms", 2000);
  if (!timeout_ms) return timeout_ms.status();
  auto format = flags.get_string_or("format", "text");
  if (!format) return format.status();
  if (*count < 1) return {ErrorCode::kInvalidArgument, "ping: need count >= 1"};
  auto credentials = load_client_credentials(flags, "ping");
  if (!credentials) return credentials.status();

  auto endpoint = transport::parse_endpoint(*endpoint_text);
  if (!endpoint) return endpoint.status();

  transport::ConnectionTuning tuning;
  tuning.connect_timeout_ms = *timeout_ms;
  tuning.io_timeout_ms = *timeout_ms;
  tuning.heartbeat_timeout_ms = *timeout_ms;
  transport::SupervisedConnection conn(*endpoint, tuning);
  conn.set_credentials(std::move(*credentials));
  if (Status s = conn.ensure_connected(
          Deadline::after(std::chrono::milliseconds(*timeout_ms)));
      !s.is_ok()) {
    return {s.code(), "ping: cannot reach ptmd at " + endpoint->to_string() +
                          " (" + s.message() + ")"};
  }

  std::uint64_t best_ns = ~0ULL;
  std::uint64_t sum_ns = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto rtt = conn.ping();
    if (!rtt) return rtt.status();  // half-open/severed: report honestly
    best_ns = std::min(best_ns, *rtt);
    sum_ns += *rtt;
  }
  out << "ptmd at " << endpoint->to_string() << ": alive, " << *count
      << " heartbeat(s), rtt min/avg = " << best_ns / 1000 << "/"
      << sum_ns / *count / 1000 << " us\n";

  if (Status s = conn.send(transport::StatsRequest{}); !s.is_ok()) return s;
  auto reply = conn.receive(
      Deadline::after(std::chrono::milliseconds(*timeout_ms)));
  if (!reply) return reply.status();
  const auto* stats = std::get_if<transport::StatsResponse>(&*reply);
  if (stats == nullptr) {
    return {ErrorCode::kParseError,
            "ping: expected a stats-response message"};
  }
  if (*format == "json") {
    out << stats->json;
    return Status::ok();
  }
  TableWriter table({"metric", "value"});
  for (const char* name :
       {"transport_accepted_total", "transport_frames_total",
        "transport_ingest_shed_total", "transport_nacks_total",
        "transport_protocol_errors_total", "transport_auth_ok_total",
        "transport_auth_failures_total", "transport_auth_rejects_total",
        "ingest_ok", "ingest_duplicate", "ingest_rejected"}) {
    table.add_row({name, TableWriter::fmt(std::uint64_t{
                             sum_json_counter(stats->json, name)})});
  }
  table.print(out);
  return Status::ok();
}

/// The QueryRequest `ptmctl query` flags describe.
Result<QueryRequest> query_from_flags(const Config& flags,
                                      const Deadline& deadline) {
  auto shape = flags.get_string("shape");
  if (!shape) return shape.status();
  auto skip = flags.get_u64_or("skip_missing", 0);
  if (!skip) return skip.status();
  const MissingPolicy missing =
      *skip != 0 ? MissingPolicy::kSkipMissing : MissingPolicy::kFail;
  const auto list = [&](const char* key) {
    auto text = flags.get_string(key);
    if (!text) return Result<std::vector<std::uint64_t>>(text.status());
    return parse_u64_list(*text, std::string("query --") + key);
  };
  if (*shape == "p2p") {
    auto from = flags.get_u64("from");
    if (!from) return from.status();
    auto to = flags.get_u64("to");
    if (!to) return to.status();
    auto periods = list("periods");
    if (!periods) return periods.status();
    return QueryRequest{
        P2PPersistentQuery{*from, *to, std::move(*periods), deadline}};
  }
  if (*shape == "corridor") {
    auto locations = list("locations");
    if (!locations) return locations.status();
    auto periods = list("periods");
    if (!periods) return periods.status();
    return QueryRequest{CorridorQuery{std::move(*locations),
                                      std::move(*periods), missing, deadline}};
  }
  auto location = flags.get_u64("location");
  if (!location) return location.status();
  if (*shape == "volume") {
    auto period = flags.get_u64("period");
    if (!period) return period.status();
    return QueryRequest{PointVolumeQuery{*location, *period, deadline}};
  }
  if (*shape == "persistent") {
    auto periods = list("periods");
    if (!periods) return periods.status();
    return QueryRequest{PointPersistentQuery{*location, std::move(*periods),
                                             missing, deadline}};
  }
  if (*shape == "recent") {
    auto window = flags.get_u64("window");
    if (!window) return window.status();
    return QueryRequest{RecentPersistentQuery{
        *location, static_cast<std::size_t>(*window), missing, deadline}};
  }
  return Status{ErrorCode::kInvalidArgument,
                "query: --shape must be volume, persistent, recent, p2p or "
                "corridor"};
}

/// One query-call round trip to a single ptmd.
Result<QueryResponse> query_endpoint(const std::string& endpoint_text,
                                     const QueryRequest& request,
                                     transport::ConnectionTuning tuning,
                                     std::optional<transport::AuthCredentials>
                                         credentials) {
  // The daemon refuses an oversize request too, but the call carrying it
  // might not fit in a frame.
  if (Status s = check_query_bounds(request); !s.is_ok()) return s;
  auto endpoint = transport::parse_endpoint(endpoint_text);
  if (!endpoint) return endpoint.status();
  transport::SupervisedConnection conn(*endpoint, tuning);
  conn.set_credentials(std::move(credentials));
  const Deadline& deadline = query_deadline(request);
  if (Status s = conn.ensure_connected(deadline); !s.is_ok()) {
    return Status{s.code(), "query: cannot reach ptmd at " +
                                endpoint->to_string() + " (" + s.message() +
                                ")"};
  }
  if (Status s = conn.send(transport::QueryCall{1, request, deadline});
      !s.is_ok()) {
    return s;
  }
  auto reply = conn.await_reply<transport::QueryReply>(1, deadline);
  if (!reply) return reply.status();
  return std::move(reply->response);
}

Status cmd_query(const Config& flags, std::ostream& out) {
  auto endpoint = flags.get_string_or("endpoint", "");
  if (!endpoint) return endpoint.status();
  auto spec = flags.get_string_or("cluster", "");
  if (!spec) return spec.status();
  auto timeout_ms = flags.get_u64_or("timeout_ms", 5000);
  if (!timeout_ms) return timeout_ms.status();
  if (endpoint->empty() == spec->empty()) {
    return {ErrorCode::kInvalidArgument,
            "query: give exactly one of --endpoint EP or --cluster SPEC"};
  }
  auto credentials = load_client_credentials(flags, "query");
  if (!credentials) return credentials.status();
  const Deadline deadline =
      Deadline::after(std::chrono::milliseconds(*timeout_ms));
  auto request = query_from_flags(flags, deadline);
  if (!request) return request.status();

  transport::ConnectionTuning tuning;
  tuning.connect_timeout_ms = *timeout_ms;
  tuning.io_timeout_ms = *timeout_ms;
  QueryResponse response;
  if (!endpoint->empty()) {
    auto answered =
        query_endpoint(*endpoint, *request, tuning, std::move(*credentials));
    if (!answered) return answered.status();
    response = std::move(*answered);
  } else {
    auto config = cluster::parse_cluster_spec(*spec);
    if (!config) return config.status();
    cluster::ClusterCoordinatorOptions options;
    options.config = std::move(*config);
    options.tuning = tuning;
    options.credentials = std::move(*credentials);
    cluster::ClusterCoordinator coordinator(std::move(options));
    response = coordinator.run(*request);
  }

  const CoverageReport& coverage = response.coverage;
  const auto join = [](const std::vector<std::uint64_t>& periods) {
    std::string text;
    for (std::uint64_t p : periods) {
      if (!text.empty()) text += ',';
      text += std::to_string(p);
    }
    return text;
  };
  if (!response.ok()) {
    if (!coverage.missing.empty()) {
      out << "missing periods: " << join(coverage.missing) << "\n";
    }
    return response.status;
  }
  out << query_kind_name(*request) << ": "
      << format_estimate_summary(response.summary) << "\n";
  if (!coverage.requested.empty()) {
    out << "coverage: " << coverage.present.size() << "/"
        << coverage.requested.size() << " periods present";
    if (!coverage.missing.empty()) {
      out << " (missing " << join(coverage.missing) << ")";
    }
    out << "\n";
  }
  return Status::ok();
}

/// cluster-status is a health gate: the report prints either way, but the
/// exit code must say "degraded" when any member is down.
Status unreachable_status(const std::vector<cluster::NodeStatus>& statuses) {
  std::string down;
  for (const auto& s : statuses) {
    if (s.reachable) continue;
    if (!down.empty()) down += ", ";
    down += std::to_string(s.node_id);
  }
  if (down.empty()) return Status::ok();
  return {ErrorCode::kChannelError, "unreachable cluster nodes: " + down};
}

Status cmd_cluster_status(const Config& flags, std::ostream& out) {
  auto spec_text = flags.get_string("cluster");
  if (!spec_text) return spec_text.status();
  auto timeout_ms = flags.get_u64_or("timeout_ms", 2000);
  if (!timeout_ms) return timeout_ms.status();
  auto format = flags.get_string_or("format", "text");
  if (!format) return format.status();
  auto credentials = load_client_credentials(flags, "cluster-status");
  if (!credentials) return credentials.status();

  auto config = cluster::parse_cluster_spec(*spec_text);
  if (!config) return config.status();

  cluster::ClusterCoordinatorOptions options;
  options.config = std::move(*config);
  options.tuning.connect_timeout_ms = *timeout_ms;
  options.tuning.io_timeout_ms = *timeout_ms;
  options.credentials = std::move(*credentials);
  cluster::ClusterCoordinator coordinator(std::move(options));
  const auto statuses = coordinator.cluster_status(
      Deadline::after(std::chrono::milliseconds(*timeout_ms *
                                                 coordinator.partition_map()
                                                     .node_count())));

  if (*format == "json") {
    // One JSON object per node; the stats field is the daemon's own
    // telemetry document (or null when unreachable).
    out << "[";
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      const auto& s = statuses[i];
      if (i > 0) out << ",";
      out << "{\"node\":" << s.node_id << ",\"client\":\""
          << s.client_endpoint << "\",\"repl\":\"" << s.repl_endpoint
          << "\",\"vnodes\":" << s.vnodes
          << ",\"reachable\":" << (s.reachable ? "true" : "false")
          << ",\"stats\":" << (s.reachable ? s.stats_json : "null") << "}";
    }
    out << "]\n";
    return unreachable_status(statuses);
  }

  TableWriter table({"node", "client endpoint", "repl endpoint", "vnodes",
                     "state", "ingested", "repl records", "subscribers",
                     "repl lag"});
  for (const auto& s : statuses) {
    if (!s.reachable) {
      table.add_row({TableWriter::fmt(s.node_id), s.client_endpoint,
                     s.repl_endpoint, TableWriter::fmt(s.vnodes),
                     "unreachable", "-", "-", "-", "-"});
      continue;
    }
    table.add_row(
        {TableWriter::fmt(s.node_id), s.client_endpoint, s.repl_endpoint,
         TableWriter::fmt(s.vnodes), "up",
         TableWriter::fmt(sum_json_counter(s.stats_json, "ingest_ok")),
         TableWriter::fmt(
             sum_json_counter(s.stats_json, "transport_repl_records_total")),
         TableWriter::fmt(
             sum_json_counter(s.stats_json, "transport_repl_subscribers")),
         TableWriter::fmt(
             sum_json_counter(s.stats_json, "transport_repl_lag"))});
  }
  table.print(out);
  return unreachable_status(statuses);
}

Status cmd_auth_init(const Config& flags, std::ostream& out) {
  auto dir = flags.get_string("dir");
  if (!dir) return dir.status();
  auto seed = flags.get_u64_or("seed", 1);
  if (!seed) return seed.status();
  auto bits = flags.get_u64_or("bits", 512);
  if (!bits) return bits.status();
  auto locations_raw = flags.get_string_or("locations", "1");
  if (!locations_raw) return locations_raw.status();
  auto valid_from = flags.get_u64_or("valid_from", 0);
  if (!valid_from) return valid_from.status();
  auto valid_until = flags.get_u64_or("valid_until", 1'000'000);
  if (!valid_until) return valid_until.status();

  auto locations = parse_u64_list(*locations_raw, "auth-init");
  if (!locations) return locations.status();

  if (::mkdir(dir->c_str(), 0755) != 0 && errno != EEXIST) {
    return {ErrorCode::kInternal,
            "auth-init: cannot create " + *dir + ": " + std::strerror(errno)};
  }

  Xoshiro256 rng(*seed);
  const CertificateAuthority ca("ptmctl-test-ca",
                                static_cast<std::size_t>(*bits), rng);
  const std::string ca_path = *dir + "/ca.pub";
  if (Status s = save_public_key_file(ca_path, ca.public_key()); !s.is_ok()) {
    return s;
  }
  out << "wrote " << ca_path << "\n";

  const auto mint = [&](const std::string& stem, const std::string& subject,
                        std::uint64_t subject_id) -> Status {
    const RsaKeyPair keys = rsa_generate(static_cast<std::size_t>(*bits), rng);
    auto cert = ca.issue(subject, subject_id, keys.pub, *valid_from,
                         *valid_until);
    if (!cert) return cert.status();
    const std::string key_path = *dir + "/" + stem + ".key";
    const std::string cert_path = *dir + "/" + stem + ".cert";
    if (Status s = save_keypair_file(key_path, keys); !s.is_ok()) return s;
    if (Status s = save_certificate_file(cert_path, *cert); !s.is_ok()) {
      return s;
    }
    out << "wrote " << key_path << " + " << cert_path << " (" << subject
        << ", periods " << *valid_from << ".." << *valid_until << ")\n";
    return Status::ok();
  };

  for (const std::uint64_t location : *locations) {
    if (Status s = mint("rsu" + std::to_string(location),
                        "rsu:" + std::to_string(location), location);
        !s.is_ok()) {
      return s;
    }
  }
  // One operator credential for ptmctl ping / loadgen against the same CA.
  return mint("client", "ptmctl-client", 0);
}

std::string cli_usage() {
  return R"(ptmctl - persistent traffic measurement toolkit

usage: ptmctl <command> [--flag value]... [--config file]

commands:
  generate    synthesize records into a log
              --out FILE [--seed N] [--s N] [--f X] [--t N] [--common N]
              [--volume_min N] [--volume_max N] [--location L]
              [--location_b L2]   (set location_b for a p2p pair)
  inspect     list a log's records        --log FILE
  volume      point traffic estimate      --log FILE --location L --period P
  persistent  point persistent estimate   --log FILE --location L
              [--groups G] [--ci N]       (G > 2: k-way estimator; N > 0:
                                           bootstrap CI with N resamples)
  p2p         p2p persistent estimate     --log FILE --from L --to L2 [--s N]
  corridor    k-location persistent       --log FILE --locations L1,L2,... [--s N]
  compact     rewrite a log in place      --log FILE [--keep N]
                                          (keep = last N periods/location)
  privacy     Eq. 22-24 analysis          [--n N] [--f X] [--s N]
  stats       query-service snapshot      --log FILE [--shards N] [--s N]
                                          (sharded store + latency metrics)
  metrics     telemetry exposition        --log FILE [--format prometheus|
                                          json|text] [--shards N] [--s N]
                                          (probe queries, then export the
                                           telemetry registry snapshot)
  trace       span-dump post-mortem       --spans FILE [--id HEX]
                                          (list traces, or one trace's
                                           hop-by-hop timeline)
  recover     crash-recovery dry run      --log FILE [--shards N]
                                          (open archive, rebuild the store,
                                           print per-location counts)
  ping        probe a running ptmd        --endpoint EP [--count N]
                                          [--timeout_ms N] [--format text|json]
                                          [--key FILE --cert FILE]
                                          (heartbeat round trips + the
                                           daemon's ingest/shed counters;
                                           EP like unix:/run/ptmd.sock or
                                           tcp:127.0.0.1:7777; key/cert
                                           authenticate against a
                                           --require-auth daemon)
  cluster-status  poll a ptmd cluster     --cluster SPEC [--timeout_ms N]
                                          [--format text|json]
                                          [--key FILE --cert FILE]
                                          (per-node reachability, ring share,
                                           ingest/replication counters and
                                           lag; SPEC like
                                           1@unix:/a.sock@unix:/a-repl.sock;
                                           2@tcp:127.0.0.1:7101)
  query       query a live ptmd or cluster
              (--endpoint EP | --cluster SPEC)
              --shape volume      --location L --period P
              --shape persistent  --location L --periods P1,P2,...
              --shape recent      --location L --window W
              --shape p2p         --from L --to L2 --periods P1,P2,...
              --shape corridor    --locations L1,L2,... --periods P1,...
              [--skip_missing 1] [--timeout_ms N] [--key FILE --cert FILE]
                                          (one query-call to a ptmd, or a
                                           pushed-down cluster query; prints
                                           the estimate and its coverage)
  auth-init   mint a test PKI             --dir DIR [--seed N] [--bits N]
                                          [--locations L1,L2,...]
                                          [--valid_from P] [--valid_until P]
                                          (writes ca.pub, per-location
                                           rsu<L>.key/.cert, client.key/.cert
                                           for ptmd --ca-cert deployments)
  help        this text
)";
}

Status run_cli(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << cli_usage();
    return Status::ok();
  }
  const std::string& command = args[0];
  auto flags = parse_cli_flags({args.begin() + 1, args.end()});
  if (!flags) return flags.status();

  if (command == "generate") return cmd_generate(*flags, out);
  if (command == "inspect") return cmd_inspect(*flags, out);
  if (command == "volume") return cmd_volume(*flags, out);
  if (command == "persistent") return cmd_persistent(*flags, out);
  if (command == "p2p") return cmd_p2p(*flags, out);
  if (command == "corridor") return cmd_corridor(*flags, out);
  if (command == "compact") return cmd_compact(*flags, out);
  if (command == "privacy") return cmd_privacy(*flags, out);
  if (command == "stats") return cmd_stats(*flags, out);
  if (command == "metrics") return cmd_metrics(*flags, out);
  if (command == "trace") return cmd_trace(*flags, out);
  if (command == "recover") return cmd_recover(*flags, out);
  if (command == "ping") return cmd_ping(*flags, out);
  if (command == "cluster-status") return cmd_cluster_status(*flags, out);
  if (command == "query") return cmd_query(*flags, out);
  if (command == "auth-init") return cmd_auth_init(*flags, out);
  return {ErrorCode::kInvalidArgument,
          "unknown command: " + command + " (try `ptmctl help`)"};
}

}  // namespace ptm
