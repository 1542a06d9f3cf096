// Performance benchmarks for the hot paths: vehicle encoding, bitmap
// joins/expansion, the three estimators, and the query service.  These are
// ours (the paper reports no throughput numbers) and exist to keep the
// library honest about the "RSU handles a beacon's worth of vehicles per
// second" and "server answers a query interactively" stories.  All are
// registered PTM_PERF_BENCH bodies, so the same objects serve the
// standalone bench_perf_core binary and the bench_runner JSON/regression
// tool; --smoke (CI) shrinks every workload.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "common/random.hpp"
#include "common/serialize.hpp"
#include "core/bootstrap.hpp"
#include "core/encoding.hpp"
#include "core/expansion.hpp"
#include "core/linear_counting.hpp"
#include "core/p2p_persistent.hpp"
#include "core/point_persistent.hpp"
#include "core/sliding_join.hpp"
#include "hash/hash_suite.hpp"
#include "nodes/deployment.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "query/query_service.hpp"
#include "simd/kernels.hpp"
#include "store/archive.hpp"
#include "traffic/workload.hpp"
#include "transport/framing.hpp"
#include "transport/wire.hpp"

namespace {

using namespace ptm;
using bench::do_not_optimize;
using bench::MeasureOptions;

/// t = 16 records with sizes cycling m/64 .. m - the mixed-size join the
/// lazy-expansion kernels exist for.
std::vector<Bitmap> join_kernel_records(std::size_t m) {
  Xoshiro256 rng(12);
  std::vector<Bitmap> records;
  const std::size_t sizes[] = {m / 64, m / 16, m / 4, m};
  for (int i = 0; i < 16; ++i) {
    const std::size_t bits = sizes[i % 4];
    Bitmap b(bits);
    for (std::size_t j = 0; j < bits / 2; ++j) b.set(rng.below(bits));
    records.push_back(std::move(b));
  }
  return records;
}

}  // namespace

PTM_PERF_BENCH(perf_hash) {
  for (HashFamily family :
       {HashFamily::kMurmur3, HashFamily::kXxHash, HashFamily::kSipHash}) {
    std::uint64_t v = 0x9E3779B97F4A7C15ULL;
    ctx.measure(std::string("hash64/") + std::string(hash_family_name(family)),
                {}, [&] {
                  v = hash64(family, v, 42);
                  do_not_optimize(v);
                });
  }

  Xoshiro256 rng(1);
  const VehicleEncoder encoder(EncodingParams{});
  const auto vehicles = make_vehicles(1024, 3, rng);
  Bitmap record(1 << 16);
  std::size_t i = 0;
  ctx.measure("vehicle_encode", {}, [&] {
    encoder.encode(vehicles[i++ & 1023], 0xA, record);
    do_not_optimize(record);
  });
}

PTM_PERF_BENCH(perf_bitmap) {
  const std::size_t top_bits = ctx.smoke() ? (1 << 16) : (1 << 20);
  for (std::size_t bits : {std::size_t{1} << 12, top_bits}) {
    Xoshiro256 rng(2);
    Bitmap a(bits), b(bits);
    for (std::size_t i = 0; i < bits / 2; ++i) {
      a.set(rng.below(bits));
      b.set(rng.below(bits));
    }
    MeasureOptions opts;
    opts.bytes_per_op = static_cast<double>(bits / 8);
    char name[64];
    std::snprintf(name, sizeof name, "bitmap_and/%zu", bits);
    ctx.measure(name, opts, [&] {
      Bitmap copy = a;
      do_not_optimize(copy.and_with(b));
    });
    std::snprintf(name, sizeof name, "linear_counting/%zu", bits);
    ctx.measure(name, opts, [&] { do_not_optimize(estimate_cardinality(a)); });
  }

  Xoshiro256 rng(3);
  Bitmap small(1 << 12);
  for (int i = 0; i < 2000; ++i) small.set(rng.below(1 << 12));
  ctx.measure("bitmap_expand/4Ki_to_1Mi", {}, [&] {
    auto expanded = expand_to(small, 1 << 20);
    do_not_optimize(expanded);
  });
}

PTM_PERF_BENCH(perf_codec) {
  // The record codec under every wire and archive path: one record at the
  // paper's §VI sizes (m = 4, 16 and 32 Kbit), half its bits set.
  char name[64];
  for (std::size_t kbit : {4, 16, 32}) {
    Xoshiro256 rng(kbit);
    TrafficRecord rec{7, 3, Bitmap(kbit * 1024)};
    for (std::size_t i = 0; i < rec.m() / 2; ++i) {
      rec.bits.set(rng.below(rec.m()));
    }
    const std::vector<std::uint8_t> bytes = rec.serialize();
    MeasureOptions opts;
    opts.bytes_per_op = static_cast<double>(bytes.size());
    std::snprintf(name, sizeof name, "record_serialize/%zuKbit", kbit);
    ctx.measure(name, opts, [&] { do_not_optimize(rec.serialize()); });
    std::snprintf(name, sizeof name, "record_deserialize/%zuKbit", kbit);
    ctx.measure(name, opts,
                [&] { do_not_optimize(TrafficRecord::deserialize(bytes)); });
  }

  Xoshiro256 rng(11);
  std::vector<std::uint8_t> block(2048);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
  MeasureOptions crc_opts;
  crc_opts.bytes_per_op = static_cast<double>(block.size());
  ctx.measure("crc32/2KiB", crc_opts, [&] { do_not_optimize(crc32(block)); });

  // One 16 Kbit upload through the uplink's send path and ptmd's receive
  // path (stream framing + envelope + record decode).
  TrafficRecord upload{9, 4, Bitmap(16 * 1024)};
  for (std::size_t i = 0; i < upload.m() / 2; ++i) {
    upload.bits.set(rng.below(upload.m()));
  }
  const MacAddress src{1};
  const MacAddress dst{2};
  MeasureOptions upload_opts;
  upload_opts.bytes_per_op = static_cast<double>(upload.serialized_size());
  ctx.measure("upload_frame/encode", upload_opts, [&] {
    ByteWriter w;
    transport::append_frame(w, Frame{src, dst, RecordUpload{upload}, {}});
    do_not_optimize(w.buffer());
  });
  ByteWriter framed;
  transport::append_frame(framed, Frame{src, dst, RecordUpload{upload}, {}});
  transport::StreamDecoder decoder;
  ctx.measure("upload_frame/stream_decode", upload_opts, [&] {
    decoder.feed(framed.buffer());
    auto payload = decoder.next();
    do_not_optimize(transport::decode_wire_message(**payload));
  });
}

PTM_PERF_BENCH(perf_join) {
  const std::size_t m = ctx.smoke() ? (std::size_t{1} << 16)
                                    : (std::size_t{1} << 20);
  const auto records = join_kernel_records(m);
  MeasureOptions opts;
  opts.items_per_op = static_cast<double>(records.size());

  // Fused tiled AND-join vs the materializing reference that expands every
  // record to m first; the row ratio is the lazy-expansion speedup.
  MeasureOptions fused = opts;
  fused.label = std::string("fused/") + simd::active().name;
  ctx.measure("and_join/fused", fused,
              [&] { do_not_optimize(and_join_expanded(records)); });
  MeasureOptions mat = opts;
  mat.label = "materialized";
  ctx.measure("and_join/materialized", mat, [&] {
    do_not_optimize(and_join_expanded_materialized(records));
  });

  // Whole Eq. 12 evaluation, fused (no E_a/E_b/E_* ever built) vs the old
  // materializing pipeline.
  ctx.measure("eq12/fused", fused,
              [&] { do_not_optimize(estimate_point_persistent(records)); });
  ctx.measure("eq12/materialized", mat, [&] {
    do_not_optimize(estimate_point_persistent_materialized(records));
  });
}

PTM_PERF_BENCH(perf_estimators) {
  // Whole-estimator runs walk large heaps (records, bootstrap resamples)
  // and swing with allocator/cache state - warn-only in the gate; the
  // kernels underneath are hard-gated by bench_kernels.
  ctx.noisy();
  Xoshiro256 rng(5);
  const EncodingParams encoding;
  const auto common = make_vehicles(500, encoding.s, rng);

  for (std::size_t t : {std::size_t{5}, std::size_t{10}}) {
    const std::vector<std::uint64_t> volumes(t, 8000);
    const auto records =
        generate_point_records(volumes, common, 0xA, 2.0, encoding, rng);
    char name[64];
    std::snprintf(name, sizeof name, "point_persistent/t%zu", t);
    ctx.measure(name, {},
                [&] { do_not_optimize(estimate_point_persistent(records)); });
  }

  {
    const std::vector<std::uint64_t> volumes(5, 8000);
    const auto records = generate_p2p_records(volumes, volumes, common, 0xA,
                                              0xB, 2.0, encoding, rng);
    PointToPointOptions options;
    options.s = encoding.s;
    ctx.measure("p2p_persistent", {}, [&] {
      do_not_optimize(
          estimate_p2p_persistent(records.at_l, records.at_l_prime, options));
    });
  }

  {
    // Amortized cost of one window slide (the rolling "last 7 days" query).
    Xoshiro256 slide_rng(8);
    SlidingAndJoin window(7, 1 << 16);
    std::vector<Bitmap> records;
    for (int i = 0; i < 32; ++i) {
      Bitmap b(1 << 16);
      for (int j = 0; j < 20000; ++j) b.set(slide_rng.below(1 << 16));
      records.push_back(std::move(b));
    }
    std::size_t i = 0;
    ctx.measure("sliding_join_push", {}, [&] {
      do_not_optimize(window.push(records[i++ & 31]));
      do_not_optimize(window.joined());
    });
  }

  {
    const std::vector<std::uint64_t> volumes(5, 8000);
    const auto records =
        generate_point_records(volumes, common, 0xA, 2.0, encoding, rng);
    BootstrapOptions options;
    options.resamples = ctx.smoke() ? 50 : 400;
    char name[64];
    std::snprintf(name, sizeof name, "bootstrap_ci/%zu", options.resamples);
    ctx.measure(name, {}, [&] {
      do_not_optimize(estimate_point_persistent_with_ci(records, options));
    });
  }

  {
    // One full measurement period at a busy location: 500 common vehicles
    // encoded + 7500 transients.
    const std::vector<std::uint64_t> volumes(1, 8000);
    ctx.measure("generate_period_record", {}, [&] {
      do_not_optimize(
          generate_point_records(volumes, common, 0xA, 2.0, encoding, rng));
    });
  }
}

namespace {

/// Shared store for the batched-query benchmarks: locations x periods plus
/// a mixed request list (point volume, point persistent, rolling
/// persistent, p2p) - a planner dashboard refresh.  Built once per process.
struct QueryBenchFixture {
  QueryService service{
      QueryServiceOptions{.load_factor = 2.0, .s = 3, .n_shards = 32}};
  std::vector<QueryRequest> requests;

  explicit QueryBenchFixture(bool smoke) {
    const std::size_t locations = smoke ? 8 : 64;
    const std::size_t periods_n = smoke ? 4 : 8;
    const std::size_t batch = smoke ? 256 : 4096;
    const EncodingParams encoding;
    std::vector<std::uint64_t> periods(periods_n);
    for (std::size_t p = 0; p < periods_n; ++p) periods[p] = p;

    for (std::size_t loc = 1; loc <= locations; ++loc) {
      Xoshiro256 rng(loc);
      const auto fleet = make_vehicles(400, encoding.s, rng);
      const std::vector<std::uint64_t> volumes(periods_n, 6000);
      const auto bitmaps =
          generate_point_records(volumes, fleet, loc, 2.0, encoding, rng);
      for (std::size_t period = 0; period < bitmaps.size(); ++period) {
        TrafficRecord rec{loc, period, bitmaps[period]};
        if (!service.ingest(rec).is_ok()) std::abort();
      }
    }

    std::vector<QueryRequest> shapes;
    for (std::size_t loc = 1; loc <= locations; ++loc) {
      shapes.emplace_back(PointVolumeQuery{loc, periods_n / 2});
      shapes.emplace_back(PointPersistentQuery{loc, periods});
      shapes.emplace_back(RecentPersistentQuery{loc, periods_n});
    }
    for (std::size_t loc = 1; loc + 1 <= locations; loc += 2) {
      shapes.emplace_back(P2PPersistentQuery{loc, loc + 1, periods});
    }
    requests.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      requests.push_back(shapes[i % shapes.size()]);
    }
  }
};

const QueryBenchFixture& query_fixture(bool smoke) {
  static QueryBenchFixture fixture(smoke);
  return fixture;
}

std::vector<TrafficRecord> ingest_uploads(std::size_t count) {
  Xoshiro256 rng(11);
  const EncodingParams encoding;
  const auto fleet = make_vehicles(200, encoding.s, rng);
  const std::vector<std::uint64_t> volumes(1, 4000);
  std::vector<TrafficRecord> uploads;
  for (std::size_t i = 0; i < count; ++i) {
    const auto bitmaps = generate_point_records(volumes, fleet, (i % 64) + 1,
                                                2.0, encoding, rng);
    uploads.push_back(TrafficRecord{(i % 64) + 1, i / 64, bitmaps[0]});
  }
  return uploads;
}

}  // namespace

PTM_PERF_BENCH(perf_query_service) {
  // Thread pools, shard locks, and (for durable ingest) the filesystem:
  // variance here dwarfs the 10% gate, so these report as warnings.
  ctx.noisy();
  // Batched query dispatch at `threads` workers; 0 measures the sequential
  // baseline (one run() per request on the calling thread).  run_batch at
  // 8 workers vs the baseline is the headline throughput ratio of the
  // sharded QueryService.
  const QueryBenchFixture& fixture = query_fixture(ctx.smoke());
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    MeasureOptions opts;
    opts.batch = 1;
    opts.items_per_op = static_cast<double>(fixture.requests.size());
    char name[64];
    std::snprintf(name, sizeof name, "query_batch/threads%zu", threads);
    ctx.measure(name, opts, [&] {
      if (threads == 0) {
        for (const QueryRequest& request : fixture.requests) {
          do_not_optimize(fixture.service.run(request));
        }
      } else {
        do_not_optimize(fixture.service.run_batch(fixture.requests, threads));
      }
    });
  }

  // Ingest throughput: service construction is part of the op (a fresh
  // store per repetition keeps the maps from saturating), amortized over
  // the uploads.
  const auto uploads = ingest_uploads(ctx.smoke() ? 128 : 512);
  MeasureOptions ingest_opts;
  ingest_opts.batch = 1;
  ingest_opts.items_per_op = static_cast<double>(uploads.size());
  ctx.measure("ingest/volatile", ingest_opts, [&] {
    QueryService service(
        QueryServiceOptions{.load_factor = 2.0, .s = 3, .n_shards = 32});
    for (const TrafficRecord& rec : uploads) {
      do_not_optimize(service.ingest(rec));
    }
  });

  // Same workload with an active TraceContext on every record: the traced
  // delta is the price of a full per-record audit trail.
  std::vector<TraceContext> traces;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    traces.push_back(TraceContext::for_record((i % 64) + 1, i / 64));
  }
  ctx.measure("ingest/traced", ingest_opts, [&] {
    QueryService service(
        QueryServiceOptions{.load_factor = 2.0, .s = 3, .n_shards = 32});
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      do_not_optimize(service.ingest(uploads[i], traces[i]));
    }
  });

  // With the write-ahead archive attached - durability-before-ack.
  const std::string path = "/tmp/ptm_bench_archive.log";
  ctx.measure("ingest/durable", ingest_opts, [&] {
    std::remove(path.c_str());
    auto archive = RecordArchive::open(path, {});
    QueryService service(
        QueryServiceOptions{.load_factor = 2.0, .s = 3, .n_shards = 32});
    if (archive.has_value()) service.attach_durability(*archive);
    for (const TrafficRecord& rec : uploads) {
      do_not_optimize(service.ingest(rec));
    }
  });
  std::remove(path.c_str());

  // Admission-gate overhead on the query fast path: gate disabled vs a
  // wide-open bounded gate (never sheds) - steady-state overload control.
  for (bool gated : {false, true}) {
    QueryServiceOptions options{.load_factor = 2.0, .s = 3, .n_shards = 16};
    if (gated) {
      options.admission.max_in_flight = 1 << 16;
      options.admission.max_queue = 1 << 16;
    }
    QueryService service(options);
    Xoshiro256 rng(7);
    const EncodingParams encoding;
    const auto fleet = make_vehicles(200, encoding.s, rng);
    const std::vector<std::uint64_t> volumes(1, 4000);
    for (std::uint64_t period = 0; period < 8; ++period) {
      const auto bitmaps =
          generate_point_records(volumes, fleet, 1, 2.0, encoding, rng);
      (void)service.ingest(TrafficRecord{1, period, bitmaps[0]});
    }
    const QueryRequest request{RecentPersistentQuery{1, 4}};
    ctx.measure(gated ? "query_run/gated" : "query_run/ungated", {},
                [&] { do_not_optimize(service.run(request)); });
  }
}

PTM_PERF_BENCH(perf_telemetry) {
  // One registry instrument update - the unit cost every counter/gauge/
  // histogram call site pays on the hot path.  A ~20ns atomic op moves
  // >10% with core frequency scaling alone, so warn-only.
  ctx.noisy();
  TelemetryRegistry registry;
  Counter& counter = registry.counter("bench_counter", {{"shard", "0"}});
  Gauge& gauge = registry.gauge("bench_gauge");
  LatencyRecorder& latency = registry.histogram("bench_latency_ns");
  ctx.measure("telemetry/counter", {}, [&] { counter.add(); });
  ctx.measure("telemetry/gauge", {}, [&] {
    do_not_optimize(gauge.add());
    gauge.sub();
  });
  std::uint64_t v = 1;
  ctx.measure("telemetry/histogram", {}, [&] {
    latency.record(v);
    v = (v * 2862933555777941757ULL) + 3037000493ULL;  // vary the bucket
  });
}

PTM_PERF_BENCH(perf_full_stack) {
  // One complete beacon/auth/encode exchange over the (lossless) simulated
  // radio, RSA signing included - the RSU-side cost ceiling per vehicle.
  // RSA keygen timing is data-dependent (prime search), so warn-only.
  ctx.noisy();
  Deployment::Config config;
  config.ca_key_bits = 512;
  config.rsu_key_bits = 512;
  Deployment dep(config, 42);
  Rsu& rsu = dep.add_rsu(1, 1 << 16);
  std::uint64_t id = 0;
  MeasureOptions opts;
  opts.batch = ctx.smoke() ? 4 : 16;  // RSA keygen per op; keep reps sane
  ctx.measure("full_stack_contact", opts, [&] {
    Vehicle v = dep.make_vehicle(id++);
    do_not_optimize(dep.run_contact(v, rsu));
  });
}
