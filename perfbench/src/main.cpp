// main.cpp - command line, the run skeleton every workload shares, metric
// tables and the result line.
//
//   ptm_perfbench --workload ingest|query --seed N --seconds S --trace 0|1
//                 [--plant-faults]
//
// Runs in a scratch directory (.bench_run/<workload>-<pid>) it removes on
// exit; the traced run writes its spans to .bench_out/.  The
// last line of stdout is one JSON object: correct, attempted, failed and
// the metrics - every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1.
#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ledger.hpp"
#include "simd/kernels.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  ///< per-layer: the end-to-end metric it should move
  const char* on;     ///< per-layer: the workloads where it is live
};

// End-to-end metrics, tracing off.  Every workload reports every one; an
// op is a record upload (ingest) or a query (query).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "", ""},
    {"op_p50_us", "us", "", ""},
    {"ok_ratio", "ratio", "", ""},
    {"cpu_us_per_op", "us", "", ""},
    {"rss_mb", "MB", "", ""},
};

// Per-layer metrics, traced run, with the end-to-end metric each should
// move.  A metric whose layer is idle in a workload reports 0 there.  The
// e2e.* rows are the untraced half's per-workload figures: rates and
// tails, which move too much between runs on a shared host to gate on.
constexpr MetricDef kPerLayer[] = {
    {"e2e.ingest_rps", "rec/s", "-", "ingest"},
    {"e2e.ack_p50_us", "us", "-", "ingest"},
    {"e2e.ack_p90_us", "us", "-", "ingest"},
    {"e2e.ack_p99_us", "us", "-", "ingest"},
    {"e2e.query_qps", "q/s", "-", "query"},
    {"e2e.point_p50_us", "us", "-", "query"},
    {"e2e.recent_p50_us", "us", "-", "query"},
    {"e2e.p2p_p50_us", "us", "-", "query"},
    {"e2e.corridor_p50_us", "us", "-", "query"},
    {"e2e.query_p90_us", "us", "-", "query"},
    {"e2e.query_p99_us", "us", "-", "query"},
    {"transport.deliver_us.p50", "us", "op_p50_us", "ingest"},
    {"transport.deliver_us.p99", "us", "-", "ingest"},
    {"transport.encode_us", "us", "cpu_us_per_op, op_p50_us", "all"},
    {"transport.decode_us", "us", "cpu_us_per_op, op_p50_us", "all"},
    {"transport.wire_share", "ratio", "op_p50_us", "ingest"},
    {"transport.frames_per_op", "count", "ok_ratio", "all"},
    {"transport.nacks_per_op", "count", "ok_ratio", "all"},
    {"transport.shed_per_op", "count", "ok_ratio", "all"},
    {"transport.reconnects", "count", "ok_ratio", "all"},
    {"store.append_us", "us", "op_p50_us, cpu_us_per_op", "all"},
    {"store.bytes_per_record", "B", "cpu_us_per_op", "ingest"},
    {"query.ingest_us", "us", "op_p50_us", "all"},
    {"query.ingest_durable_us", "us", "op_p50_us", "all"},
    {"query.run_us.point", "us", "op_p50_us", "query"},
    {"query.run_us.recent", "us", "op_p50_us", "query"},
    {"query.run_us.p2p", "us", "op_p50_us", "query"},
    {"query.run_us.corridor", "us", "op_p50_us", "query"},
    {"query.duplicate_ratio", "ratio", "cpu_us_per_op", "ingest"},
    {"query.pool_reuse_ratio", "ratio", "cpu_us_per_op", "query"},
    {"core.serialize_us", "us", "cpu_us_per_op", "all"},
    {"core.deserialize_us", "us", "cpu_us_per_op", "all"},
    {"cluster.query_us.point", "us", "op_p50_us", "query"},
    {"cluster.query_us.recent", "us", "op_p50_us", "query"},
    {"cluster.query_us.p2p", "us", "op_p50_us", "query"},
    {"cluster.query_us.corridor", "us", "op_p50_us", "query"},
    {"cluster.gather_share.point", "ratio", "op_p50_us", "query"},
    {"cluster.gather_share.recent", "ratio", "op_p50_us", "query"},
    {"cluster.gather_share.p2p", "ratio", "op_p50_us", "query"},
    {"cluster.gather_share.corridor", "ratio", "op_p50_us", "query"},
    {"cluster.repl_records", "count", "cpu_us_per_op", "query"},
    {"cluster.converge_s", "s", "setup_s", "query"},
    {"tracing.overhead", "ratio", "-", "all"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "ptm_perfbench: %s\n"
               "usage: ptm_perfbench --workload ingest|query --seed N "
               "--seconds S --trace 0|1 [--plant-faults]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) usage(flag + " needs a whole number");
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-faults") {
      args.plant_faults = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = parse_uint(flag, value);
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_uint(flag, value);
      if (trace > 1) usage("--trace is 0 or 1");
      args.trace = trace == 1;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "ingest" && args.workload != "query") {
    usage("--workload must be ingest or query");
  }
  if (args.seconds == 0) usage("--seconds must be at least 1");
  return args;
}

/// Shortest decimal that reads back as exactly `value`.
std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

void print_span_table(const RunResult& result) {
  std::printf("\n%-22s %9s %11s %11s %13s\n", "span", "count", "p50_us",
              "p99_us", "self_us_mean");
  for (const auto& [name, stats] : result.span_stats) {
    const std::vector<double>& durations = stats.durations_us;
    const double n = static_cast<double>(durations.size());
    std::printf("%-22s %9zu %11.2f %11.2f %13.2f\n", name.c_str(),
                durations.size(), percentile(durations, 0.5),
                percentile(durations, 0.99),
                n > 0 ? stats.self_us_total / n : 0.0);
  }
  std::printf("spans written to %s\n", result.spans_path.c_str());
}

/// Drives ops [begin, end) and times the window: wall clock and the CPU
/// time of the whole process, which holds the whole system.
Window timed_drive(Workload& w, std::uint64_t begin, std::uint64_t end,
                   const std::vector<SpanSink*>& sinks) {
  const double cpu0 = process_cpu_us();
  const auto start = Clock::now();
  Window window = w.drive(begin, end, start, sinks);
  window.seconds = seconds_between(start, Clock::now());
  window.cpu_us = process_cpu_us() - cpu0;
  return window;
}

/// Geometric mean of each op class's exact median latency.  Each class
/// has its own latency mode, and the median of the mix would jump between
/// modes; this does not.
double op_p50_us(const Window& w) {
  std::vector<double> class_p50;
  for (const auto& samples : w.class_us) {
    if (!samples.empty()) class_p50.push_back(percentile(samples, 0.5));
  }
  return geomean(class_p50);
}

/// The run skeleton every workload shares.  Untraced: time every op of
/// the window, and set up kSetupsBefore times before it (the last system
/// set up is the one measured) and kSetupsAfter times after it, so that a
/// host slowdown lasting seconds reaches fewer of the set-ups whose median
/// setup_s reports.  Traced: set up once, run the first half of the ops
/// untraced and the second half with spans and counter deltas.  Either
/// way the reference checks run after the window.
RunResult run_workload(const Args& args, Workload& w) {
  constexpr int kSetupsBefore = 5;
  constexpr int kSetupsAfter = 4;
  RunResult result;
  Values& v = result.values;

  std::filesystem::path live;  // the running system's directory
  const auto tear_down = [&] {
    w.tear_down();
    if (!live.empty()) std::filesystem::remove_all(live);
    live.clear();
  };
  const auto set_up = [&] {
    tear_down();
    live = cat("s", std::to_string(result.setup_s.size()));
    const auto start = Clock::now();
    w.set_up(live);
    result.setup_s.push_back(seconds_between(start, Clock::now()));
  };
  for (int i = 0; i < (args.trace ? 1 : kSetupsBefore); ++i) set_up();

  const std::uint64_t ops = w.ops();
  if (!args.trace) {
    const Window window = timed_drive(w, 0, ops, {});
    v["op_p50_us"] = op_p50_us(window);
    v["cpu_us_per_op"] =
        window.completed() > 0
            ? window.cpu_us / static_cast<double>(window.completed())
            : 0.0;
    v["rss_mb"] = peak_rss_mb();
  } else {
    const std::uint64_t half = ops / 2;
    const Window plain = timed_drive(w, 0, half, {});
    std::vector<std::unique_ptr<SpanSink>> sinks;
    std::vector<SpanSink*> views;
    for (std::size_t t = 0; t < w.threads(); ++t) {
      sinks.push_back(std::make_unique<SpanSink>(
          t, 2 * (ops - half) / w.threads() + 16));
      views.push_back(sinks.back().get());
    }
    constexpr const char* kCounters[] = {
        "transport_frames_total", "transport_nacks_total",
        "transport_ingest_shed_total", "transport_accepted_total",
        "ingest_ok", "ingest_duplicate", "ingest_rejected"};
    Values delta;
    for (const char* name : kCounters) {
      delta[name] = -static_cast<double>(w.counter_sum(name));
    }
    const auto trace_origin = Clock::now();
    const Window traced = timed_drive(w, half, ops, views);
    for (const char* name : kCounters) {
      delta[name] += static_cast<double>(w.counter_sum(name));
    }

    v["tracing.overhead"] = plain.rate() / traced.rate() - 1.0;
    const auto traced_ops = static_cast<double>(ops - half);
    v["transport.frames_per_op"] = delta["transport_frames_total"] / traced_ops;
    v["transport.nacks_per_op"] = delta["transport_nacks_total"] / traced_ops;
    v["transport.shed_per_op"] =
        delta["transport_ingest_shed_total"] / traced_ops;
    // Every connection is open before the window, so any accept during it
    // is a redial.
    v["transport.reconnects"] = delta["transport_accepted_total"];
    const double ingests = delta["ingest_ok"] + delta["ingest_duplicate"] +
                           delta["ingest_rejected"];
    v["query.duplicate_ratio"] =
        ingests > 0 ? delta["ingest_duplicate"] / ingests : 0.0;

    const std::vector<const SpanSink*> const_views(views.begin(), views.end());
    auto spans = reduce_spans(const_views);
    w.layer_values(plain, traced, spans, v);
    result.spans_path = cat(args.out_dir, "/spans-", args.workload, "-",
                            std::to_string(args.seed), ".jsonl");
    if (!write_spans_jsonl(result.spans_path, const_views, trace_origin)) {
      result.problems.push_back("cannot write " + result.spans_path);
    }
    result.span_stats = std::move(spans);
  }

  const std::uint64_t passed = w.check(args.plant_faults, result);
  result.failed = result.attempted - passed;
  v["ok_ratio"] =
      static_cast<double>(passed) / static_cast<double>(result.attempted);
  if (!args.trace) {
    for (int i = 0; i < kSetupsAfter; ++i) set_up();
    v["setup_s"] = percentile(result.setup_s, 0.5);
  }
  tear_down();
  return result;
}

int run(const Args& args) {
  std::printf("host: isa=%s kernel=%s nproc=%u\n", ptm::simd::host_isa(),
              ptm::simd::active().name, std::thread::hardware_concurrency());
  std::printf("workload=%s seed=%llu seconds=%llu trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seconds),
              args.trace ? 1 : 0);

  const std::unique_ptr<Workload> workload =
      args.workload == "ingest" ? make_ingest(args) : make_query(args);
  const RunResult result = run_workload(args, *workload);

  std::set<std::string> known;
  for (const auto& d : kEndToEnd) known.insert(d.name);
  for (const auto& d : kPerLayer) known.insert(d.name);
  for (const auto& [name, value] : result.values) {
    if (known.count(name) == 0) {
      throw std::logic_error("metric " + name + " is not in the tables");
    }
  }

  const MetricDef* begin =
      args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  if (args.trace) {
    std::printf("\n%-31s %14s %-6s %-26s %s\n", "per-layer metric", "value",
                "unit", "should move", "on");
  } else {
    std::printf("\n%-31s %14s %s\n", "end-to-end metric", "value", "unit");
  }
  std::string json;
  for (const auto* d = begin; d != end; ++d) {
    const auto it = result.values.find(d->name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    if (args.trace) {
      std::printf("%-31s %14.4f %-6s %-26s %s\n", d->name, value, d->unit,
                  d->moves, d->on);
    } else {
      std::printf("%-31s %14.4f %s\n", d->name, value, d->unit);
    }
    if (!json.empty()) json += ", ";
    json += cat("\"", d->name, "\": {\"value\": ", number(value),
                ", \"unit\": \"", d->unit, "\"}");
  }
  if (args.trace) print_span_table(result);
  std::printf("set-ups (s):");
  for (double s : result.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  const std::size_t shown = std::min<std::size_t>(result.problems.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("CHECK FAILED: %s\n", result.problems[i].c_str());
  }
  if (result.problems.size() > shown) {
    std::printf("CHECK FAILED: ... %zu more\n", result.problems.size() - shown);
  }
  const bool correct = result.failed == 0 && result.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

namespace {

/// Flushes the file system holding the working directory.
void sync_filesystem() {
  const int fd = ::open(".", O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::parse_args(argc, argv);
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  args.out_dir = (home / ".bench_out").string();
  const fs::path run_dir =
      home / ".bench_run" / (args.workload + "-" + std::to_string(::getpid()));
  int status = 1;
  try {
    fs::create_directories(args.out_dir);
    fs::create_directories(run_dir);
    // Socket paths stay short (unix sockets allow ~107 bytes) because
    // every path the workloads use is relative to the run directory.
    fs::current_path(run_dir);
    // Archives are written through the page cache, never fsynced, and
    // deleted when their system is torn down.  Writing back what earlier
    // runs left behind now keeps that disk work out of this run's set-ups
    // and timed window.
    sync_filesystem();
    status = perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptm_perfbench: %s\n", e.what());
  }
  std::fflush(stdout);
  std::error_code ignored;
  fs::current_path(home, ignored);
  fs::remove_all(run_dir, ignored);
  sync_filesystem();
  return status;
}
