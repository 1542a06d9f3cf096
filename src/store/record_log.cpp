#include "store/record_log.hpp"

#include <utility>

namespace ptm {
namespace {

constexpr LogMagic kMagic = {'P', 'T', 'M', 'R', 'L', 'O', 'G', '1'};

}  // namespace

Result<FramedLogFile> open_record_log(const std::string& path) {
  auto log = FramedLogFile::open(path, kMagic);
  if (!log && log.status().code() == ErrorCode::kFailedPrecondition) {
    return Status{ErrorCode::kFailedPrecondition,
                  path + " exists but is not a record log"};
  }
  return log;
}

Result<TrafficRecord> read_record_at(const FramedLogFile& log,
                                     const FrameExtent& extent) {
  auto payload = log.read(extent);
  if (!payload) return payload.status();
  auto record = TrafficRecord::deserialize(*payload);
  if (!record) {
    return Status{ErrorCode::kParseError,
                  log.path() + ": undecodable record at offset " +
                      std::to_string(extent.offset) + ": " +
                      record.status().to_string()};
  }
  return record;
}

Result<RecordLogWriter> RecordLogWriter::open(const std::string& path) {
  auto log = open_record_log(path);
  if (!log) return log.status();
  return RecordLogWriter(std::move(*log));
}

Status RecordLogWriter::append(const TrafficRecord& record) {
  if (Status s = record.validate(); !s.is_ok()) return s;
  return log_.append(record.serialize()).status();
}

Result<FramedLogTail> scan_record_log(
    const std::string& path,
    const std::function<void(const FrameExtent&, TrafficRecord&&)>& visit) {
  auto tail = scan_framed_log(
      path, kMagic,
      [&visit](const FrameExtent& extent,
               std::span<const std::uint8_t> payload) {
        auto record = TrafficRecord::deserialize(payload);
        if (!record) {
          // A valid CRC around an undecodable body means the writer itself
          // was cut off mid-logic (or the file was tampered with); keep the
          // provably-whole prefix exactly like a torn tail.
          return Status{ErrorCode::kParseError,
                        "undecodable record: " + record.status().to_string()};
        }
        visit(extent, std::move(*record));
        return Status::ok();
      });
  if (!tail && tail.status().code() == ErrorCode::kParseError) {
    return Status{ErrorCode::kParseError, path + ": bad record-log magic"};
  }
  return tail;
}

Result<RecordLogContents> read_record_log(const std::string& path) {
  RecordLogContents contents;
  auto tail = scan_record_log(
      path, [&contents](const FrameExtent&, TrafficRecord&& record) {
        contents.records.push_back(std::move(record));
      });
  if (!tail) return tail.status();
  static_cast<FramedLogTail&>(contents) = std::move(*tail);
  return contents;
}

}  // namespace ptm
