// record_log.hpp - durable storage for traffic records.
//
// The central server of §II-A accumulates one record per RSU per period,
// indefinitely (persistent queries reach back weeks).  This module gives
// that archive a crash-safe on-disk form: an append-only log of
// length-prefixed, CRC-32-protected records.
//
//   file   := magic(8) record*
//   magic  := "PTMRLOG1"
//   record := u32 payload_length | payload | u32 crc32(payload)
//
// All integers little-endian.  A torn final record (crash mid-append) is
// detected and reported; everything before it loads normally.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/traffic_record.hpp"
#include "store/framed_log.hpp"

namespace ptm {

/// Opens the record log at `path` for appending and reading back,
/// creating it (with the magic header) when absent.  FailedPrecondition if
/// an existing file has the wrong magic.
[[nodiscard]] Result<FramedLogFile> open_record_log(const std::string& path);

/// Reads back the record stored at `extent` of an open record log: CRC
/// re-checked, then decoded.  ParseError for a short read, a CRC mismatch
/// or an undecodable body.
[[nodiscard]] Result<TrafficRecord> read_record_at(const FramedLogFile& log,
                                                   const FrameExtent& extent);

/// Appends records to a log file, creating it (with the magic header) when
/// absent.  Holds the file open; one writer per file.
class RecordLogWriter {
 public:
  /// Opens/creates the log.  FailedPrecondition if an existing file has
  /// the wrong magic.
  [[nodiscard]] static Result<RecordLogWriter> open(const std::string& path);

  /// Appends one record (serialize + CRC) with a single write.
  Status append(const TrafficRecord& record);

  [[nodiscard]] const std::string& path() const noexcept {
    return log_.path();
  }

 private:
  explicit RecordLogWriter(FramedLogFile log) : log_(std::move(log)) {}

  FramedLogFile log_;
};

/// Streams every intact record of the log at `path` to `visit`, with the
/// extent of its payload, in file order.  An entry with a valid CRC but an
/// undecodable body ends the scan like a torn tail.  ParseError only for
/// unreadable files or bad magic.
[[nodiscard]] Result<FramedLogTail> scan_record_log(
    const std::string& path,
    const std::function<void(const FrameExtent&, TrafficRecord&&)>& visit);

/// Result of reading a log: the intact records, plus whether a torn /
/// corrupt tail was skipped (and why).
struct RecordLogContents : FramedLogTail {
  std::vector<TrafficRecord> records;
};

/// Reads every intact record.  ParseError only for unreadable files or bad
/// magic; mid-file corruption after intact records is reported via
/// `truncated_tail` (the archive keeps what it can prove whole).
[[nodiscard]] Result<RecordLogContents> read_record_log(
    const std::string& path);

}  // namespace ptm
