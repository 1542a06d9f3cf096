// floors.cpp - in-process replay of a workload's inputs, layer by layer.
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "net/message.hpp"
#include "store/archive.hpp"
#include "transport/framing.hpp"
#include "transport/wire.hpp"

namespace perfbench {
namespace {

/// Times `call` once per item and returns the median in microseconds.
template <typename Items, typename Call>
double median_us(const Items& items, Call&& call) {
  std::vector<double> samples;
  samples.reserve(items.size());
  for (const auto& item : items) {
    const auto start = Clock::now();
    call(item);
    samples.push_back(static_cast<double>(ns_between(start, Clock::now())) /
                      1e3);
  }
  return percentile(samples, 0.5);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("floor replay: " + what);
}

}  // namespace

void measure_floors(const std::vector<ptm::TrafficRecord>& records,
                    const std::vector<ptm::QueryRequest>& queries,
                    const ptm::QueryService* reference,
                    const std::filesystem::path& scratch_dir, Values& values) {
  namespace tp = ptm::transport;

  std::vector<std::vector<std::uint8_t>> serialized;
  serialized.reserve(records.size());
  values["core.serialize_us"] = median_us(records, [&](const auto& rec) {
    serialized.push_back(rec.serialize());
  });
  values["core.deserialize_us"] = median_us(serialized, [](const auto& bytes) {
    if (!ptm::TrafficRecord::deserialize(bytes)) fail("deserialize");
  });

  // The exact bytes UplinkClient::deliver puts on the wire per record.
  std::vector<std::vector<std::uint8_t>> framed;
  framed.reserve(records.size());
  values["transport.encode_us"] = median_us(records, [&](const auto& rec) {
    ptm::Frame upload;
    upload.src = ptm::MacAddress{0x02ULL << 40 | 1};
    upload.dst = ptm::MacAddress{0x02ULL << 40 | 2};
    upload.body = ptm::RecordUpload{rec};
    framed.push_back(tp::frame_payload(tp::encode_wire_message(upload)));
  });
  tp::StreamDecoder decoder;
  values["transport.decode_us"] = median_us(framed, [&](const auto& bytes) {
    decoder.feed(bytes);
    auto payload = decoder.next();
    if (!payload || !payload->has_value()) fail("stream decoder");
    auto message = tp::decode_wire_message(**payload);
    if (!message || !std::holds_alternative<ptm::Frame>(*message)) {
      fail("decode_wire_message");
    }
  });

  const auto open_archive = [&](const char* name) {
    const auto path = scratch_dir / name;
    std::filesystem::remove(path);
    auto archive = ptm::RecordArchive::open(path.string(), {});
    if (!archive) fail("open " + path.string());
    return std::move(*archive);
  };
  {
    ptm::RecordArchive archive = open_archive("floor_append.archive");
    values["store.append_us"] = median_us(records, [&](const auto& rec) {
      if (!archive.append(rec).is_ok()) fail("archive append");
    });
  }
  {
    ptm::QueryService service;
    values["query.ingest_us"] = median_us(records, [&](const auto& rec) {
      if (!service.ingest(rec).is_ok()) fail("volatile ingest");
    });
  }
  {
    ptm::RecordArchive archive = open_archive("floor_ingest.archive");
    ptm::QueryService service;
    service.attach_durability(archive);
    values["query.ingest_durable_us"] =
        median_us(records, [&](const auto& rec) {
          if (!service.ingest(rec).is_ok()) fail("durable ingest");
        });
  }

  if (reference == nullptr) return;
  std::vector<std::vector<double>> by_shape(std::size(kShapeNames));
  constexpr int kRepeats = 4;
  for (int r = 0; r < kRepeats; ++r) {
    for (const ptm::QueryRequest& request : queries) {
      const auto start = Clock::now();
      const ptm::QueryResponse response = reference->run(request);
      const auto end = Clock::now();
      if (!response.ok()) fail("reference run");
      by_shape[static_cast<std::size_t>(shape_of(request))].push_back(
          static_cast<double>(ns_between(start, end)) / 1e3);
    }
  }
  for (std::size_t s = 0; s < by_shape.size(); ++s) {
    if (by_shape[s].empty()) continue;
    values[std::string("query.run_us.") + kShapeNames[s]] =
        percentile(by_shape[s], 0.5);
  }
}

}  // namespace perfbench
