// Tests for obs/: the telemetry registry (instrument identity, snapshot
// determinism, the monitoring-grade consistency contract), the exporters'
// golden formats, and the tracing primitives (SpanRecorder ring,
// ScopedTimer linkage, span dump round trip, trace-on-wire codecs).  The
// concurrency suites here are the ones -DPTM_SANITIZE=thread must keep
// clean.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "net/message.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "store/outbox.hpp"

namespace ptm {
namespace {

TEST(TelemetryRegistry, SameNameAndLabelsYieldSameInstrument) {
  TelemetryRegistry reg;
  Counter& a = reg.counter("ingest_ok", {{"shard", "0"}});
  Counter& b = reg.counter("ingest_ok", {{"shard", "0"}});
  Counter& c = reg.counter("ingest_ok", {{"shard", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.add(2);
  c.add(5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("ingest_ok", {{"shard", "0"}})->counter_value, 2u);
  EXPECT_EQ(snap.find("ingest_ok", {{"shard", "1"}})->counter_value, 5u);
  EXPECT_EQ(snap.counter_sum("ingest_ok"), 7u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(TelemetryRegistry, KindsAreSeparateNamespaces) {
  TelemetryRegistry reg;
  reg.counter("depth").add(3);
  reg.gauge("depth").set(-4);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.instruments.size(), 2u);
  // Sorted by (name, labels, kind): counter before gauge.
  EXPECT_EQ(snap.instruments[0].kind, InstrumentKind::kCounter);
  EXPECT_EQ(snap.instruments[0].counter_value, 3u);
  EXPECT_EQ(snap.instruments[1].kind, InstrumentKind::kGauge);
  EXPECT_EQ(snap.instruments[1].gauge_value, -4);
}

TEST(Gauge, AddAndSubReturnPostUpdateValue) {
  Gauge g;
  EXPECT_EQ(g.add(1), 1);
  EXPECT_EQ(g.add(1), 2);
  EXPECT_EQ(g.sub(1), 1);
  g.update_max(10);
  g.update_max(4);  // monotone: no effect
  EXPECT_EQ(g.value(), 10);
}

TEST(LatencyRecorder, BucketsCountAndSum) {
  LatencyRecorder rec;
  rec.record(0);
  rec.record(1);
  rec.record(5);
  rec.record(900);
  const auto snap = rec.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 906u);
  EXPECT_EQ(snap.buckets[0], 2u);  // 0 and 1 ns
  EXPECT_EQ(snap.buckets[2], 1u);  // 5 ns in [4, 8)
  EXPECT_EQ(snap.buckets[9], 1u);  // 900 ns in [512, 1024)
  EXPECT_EQ(snap.percentile_ns(50.0), 1u);
  EXPECT_EQ(snap.percentile_ns(100.0), 1023u);
  rec.reset();
  EXPECT_EQ(rec.snapshot().count, 0u);
}

TEST(LatencyRecorder, SnapshotNeverOverCountsAgainstResetRaces) {
  // The documented invariant: however a snapshot tears against concurrent
  // record()/reset(), `count` never exceeds the sum of the buckets handed
  // back (percentile math must not run off the histogram's end).
  LatencyRecorder rec;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) rec.record(i++ & 1023);
  });
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) rec.reset();
  });
  for (int i = 0; i < 3000; ++i) {
    const auto snap = rec.snapshot();
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : snap.buckets) bucket_total += b;
    ASSERT_LE(snap.count, bucket_total);
    if (snap.count > 0) {
      ASSERT_NE(snap.percentile_ns(100.0), ~0ULL);
    }
  }
  stop.store(true);
  writer.join();
  resetter.join();
}

TEST(TelemetryRegistry, ConcurrentRegisterRecordSnapshotStress) {
  // Exercises the full surface under contention: lazy registration from
  // many threads (same and different label sets), relaxed-atomic updates,
  // and snapshots racing both.  The assertions that matter under TSan are
  // the absence of data races; the final totals prove no update was lost.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  TelemetryRegistry reg;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = reg.snapshot();
      for (const auto& inst : snap.instruments) {
        if (inst.kind != InstrumentKind::kHistogram) continue;
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t b : inst.histogram.buckets) {
          bucket_total += b;
        }
        ASSERT_LE(inst.histogram.count, bucket_total);
      }
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      const TelemetryLabels labels{{"worker", std::to_string(t % 4)}};
      for (int i = 0; i < kIters; ++i) {
        reg.counter("events", labels).add();
        // The level and its high-water mark live in separate gauges, as
        // AdmissionController keeps in_flight / peak_in_flight: raising
        // the level's own value to a stale max would overwrite another
        // thread's decrement.
        Gauge& depth = reg.gauge("depth");
        reg.gauge("depth_peak").update_max(depth.add(1));
        depth.sub(1);
        reg.histogram("lat").record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  snapshotter.join();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_sum("events"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.find("depth")->gauge_value, 0);
  const std::int64_t peak = snap.find("depth_peak")->gauge_value;
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, kThreads);
  EXPECT_EQ(snap.find("lat")->histogram.count,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

/// The fixed registry both exporter golden tests snapshot.
TelemetrySnapshot golden_snapshot() {
  static TelemetryRegistry reg;
  static bool initialized = false;
  if (!initialized) {
    initialized = true;
    reg.counter("ingest_ok", {{"shard", "0"}}).add(2);
    reg.counter("ingest_ok", {{"shard", "1"}}).add(5);
    reg.counter("queries_total").add(3);
    reg.gauge("queries_in_flight").set(-2);
    LatencyRecorder& lat = reg.histogram("query_latency_ns");
    lat.record(0);
    lat.record(1);
    lat.record(5);
    lat.record(900);
  }
  return reg.snapshot();
}

TEST(Exporters, PrometheusGolden) {
  const std::string expected =
      "# TYPE ingest_ok counter\n"
      "ingest_ok{shard=\"0\"} 2\n"
      "ingest_ok{shard=\"1\"} 5\n"
      "# TYPE queries_in_flight gauge\n"
      "queries_in_flight -2\n"
      "# TYPE queries_total counter\n"
      "queries_total 3\n"
      "# TYPE query_latency_ns histogram\n"
      "query_latency_ns_bucket{le=\"1\"} 2\n"
      "query_latency_ns_bucket{le=\"3\"} 2\n"
      "query_latency_ns_bucket{le=\"7\"} 3\n"
      "query_latency_ns_bucket{le=\"15\"} 3\n"
      "query_latency_ns_bucket{le=\"31\"} 3\n"
      "query_latency_ns_bucket{le=\"63\"} 3\n"
      "query_latency_ns_bucket{le=\"127\"} 3\n"
      "query_latency_ns_bucket{le=\"255\"} 3\n"
      "query_latency_ns_bucket{le=\"511\"} 3\n"
      "query_latency_ns_bucket{le=\"1023\"} 4\n"
      "query_latency_ns_bucket{le=\"+Inf\"} 4\n"
      "query_latency_ns_sum 906\n"
      "query_latency_ns_count 4\n";
  EXPECT_EQ(to_prometheus(golden_snapshot()), expected);
}

TEST(Exporters, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": [\n"
      "    {\"name\":\"ingest_ok\",\"labels\":{\"shard\":\"0\"},\"value\":2},\n"
      "    {\"name\":\"ingest_ok\",\"labels\":{\"shard\":\"1\"},\"value\":5},\n"
      "    {\"name\":\"queries_total\",\"labels\":{},\"value\":3}\n"
      "  ],\n"
      "  \"gauges\": [\n"
      "    {\"name\":\"queries_in_flight\",\"labels\":{},\"value\":-2}\n"
      "  ],\n"
      "  \"histograms\": [\n"
      "    {\"name\":\"query_latency_ns\",\"labels\":{},\"count\":4,"
      "\"sum_ns\":906,\"buckets\":[{\"upper_ns\":1,\"count\":2},"
      "{\"upper_ns\":7,\"count\":1},{\"upper_ns\":1023,\"count\":1}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_json(golden_snapshot()), expected);
}

TEST(TraceContext, ForRecordIsDeterministicAndActive) {
  const TraceContext a = TraceContext::for_record(7, 3);
  const TraceContext b = TraceContext::for_record(7, 3);
  const TraceContext c = TraceContext::for_record(7, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.trace_id, c.trace_id);
  EXPECT_TRUE(a.active());
  EXPECT_FALSE(TraceContext{}.active());
}

TEST(SpanRecorder, BoundedRingEvictsOldestAndCounts) {
  SpanRecorder rec("test-node", 4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    Span span;
    span.trace_id = i <= 3 ? 100 : 200;
    span.span_id = i;
    span.name = "op";
    rec.record(std::move(span));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].span_id, i + 3);  // oldest first: 3, 4, 5, 6
    EXPECT_EQ(spans[i].node, "test-node");
  }
  const auto of_200 = rec.for_trace(200);
  ASSERT_EQ(of_200.size(), 3u);
  EXPECT_EQ(of_200.front().span_id, 4u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(ScopedTimer, RecordsLinkedSpansAndNullIsNoOp) {
  SpanRecorder rec("timer-node");
  TraceContext child_ctx;
  {
    ScopedTimer parent(&rec, "outer", TraceContext{42, 7}, 11);
    {
      ScopedTimer child(&rec, "inner", parent.context());
      child.set_ok(false);
      child_ctx = child.context();
    }
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);  // inner closed first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].trace_id, 42u);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_span_id, 7u);
  EXPECT_EQ(spans[1].start_step, 11u);
  EXPECT_TRUE(spans[1].ok);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_EQ(child_ctx.span_id, spans[0].span_id);

  {
    ScopedTimer noop(nullptr, "ignored", TraceContext{42, 7});
    EXPECT_FALSE(noop.context().active());
  }
  EXPECT_EQ(rec.size(), 2u);
}

TEST(SpanDump, WriteLoadRoundTrip) {
  SpanRecorder a("node-a", 8);
  SpanRecorder b("node-b", 8);
  {
    ScopedTimer span(&a, "encode", TraceContext{0xABCD, 1}, 3);
  }
  {
    ScopedTimer span(&b, "ingest \"quoted\"\n", TraceContext{0xABCD, 2}, 5);
    span.set_ok(false);
  }
  const std::string path = ::testing::TempDir() + "/ptm_span_dump.jsonl";
  ASSERT_TRUE(write_span_dump(path, {&a, &b}).is_ok());
  const auto loaded = load_span_dump(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].node, "node-a");
  EXPECT_EQ((*loaded)[0].name, "encode");
  EXPECT_EQ((*loaded)[0].trace_id, 0xABCDu);
  EXPECT_EQ((*loaded)[0].parent_span_id, 1u);
  EXPECT_EQ((*loaded)[0].start_step, 3u);
  EXPECT_TRUE((*loaded)[0].ok);
  EXPECT_EQ((*loaded)[1].name, "ingest \"quoted\"\n");  // escaping survives
  EXPECT_FALSE((*loaded)[1].ok);
}

TEST(FrameTrace, SurvivesTheWireCodec) {
  Frame frame;
  frame.src = MacAddress{7};
  frame.dst = broadcast_mac();
  frame.body = UploadAck{7, 9};
  frame.trace = TraceContext{0x1122334455667788ULL, 0x99AABBCCDDEEFF00ULL};
  const auto wire = encode_frame(frame);
  const auto decoded = decode_frame(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->trace, frame.trace);

  Frame untraced{MacAddress{1}, MacAddress{2}, EncodeAck{}, {}};
  const auto round = decode_frame(encode_frame(untraced));
  ASSERT_TRUE(round.has_value());
  EXPECT_FALSE(round->trace.active());
}

TEST(OutboxTrace, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/ptm_outbox_trace.log";
  std::remove(path.c_str());
  const TraceContext trace = TraceContext::for_record(5, 0);
  TrafficRecord rec;
  rec.location = 5;
  rec.period = 0;
  rec.bits = Bitmap(64);
  rec.bits.set(3);
  {
    auto outbox = UploadOutbox::open(path, 8);
    ASSERT_TRUE(outbox.has_value());
    ASSERT_TRUE(outbox->push(rec, TraceContext{trace.trace_id, 1234}).is_ok());
  }
  auto reopened = UploadOutbox::open(path, 8);
  ASSERT_TRUE(reopened.has_value());
  ASSERT_EQ(reopened->pending(), 1u);
  const UploadOutbox::Entry* entry = reopened->find(5, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->trace.trace_id, trace.trace_id);
  EXPECT_EQ(entry->trace.span_id, 1234u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ptm
