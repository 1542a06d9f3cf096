// framed_log.hpp - the shared on-disk framing under every durable file in
// this project (record log, RSU journal, upload outbox).
//
//   file   := magic(8) entry*
//   entry  := u32 payload_length | payload | u32 crc32(payload)
//
// All integers little-endian.  The reader stops at the first torn or
// corrupt entry and reports it; everything before loads normally, which is
// what makes append-mid-crash recoverable: a process killed during a write
// leaves at worst one torn tail entry, never a poisoned prefix.  A write
// that fails while the process lives (ENOSPC, EIO, a file-size limit) is
// truncated back off, so a later entry never lands behind a torn one.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace ptm {

using LogMagic = std::array<char, 8>;

/// Where one entry's payload sits in its file.
struct FrameExtent {
  std::uint64_t offset = 0;  ///< first payload byte (the CRC follows it)
  std::uint32_t length = 0;  ///< payload bytes
};

/// An open framed log: one O_APPEND descriptor that appends and, with
/// pread, reads entries back.  Move-only; one writer per file.
class FramedLogFile {
 public:
  /// Opens `path`, creating it with the magic header when absent or
  /// empty.  FailedPrecondition when the file holds something else.
  [[nodiscard]] static Result<FramedLogFile> open(const std::string& path,
                                                  const LogMagic& magic);

  FramedLogFile(FramedLogFile&& other) noexcept;
  FramedLogFile& operator=(FramedLogFile&& other) noexcept;
  ~FramedLogFile();

  /// Appends one entry with a single write.  A failed or short write is
  /// truncated back to the previous end of file; if even that fails, the
  /// file refuses every later append (a reopen heals the tail).
  [[nodiscard]] Result<FrameExtent> append(
      std::span<const std::uint8_t> payload);

  /// Reads the payload at `extent` back and re-checks its CRC.  A short
  /// read or a CRC mismatch is ParseError.
  [[nodiscard]] Result<std::vector<std::uint8_t>> read(
      const FrameExtent& extent) const;

  /// Renames the file to `to`; the descriptor keeps appending to it.
  [[nodiscard]] Status rename(const std::string& to);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  FramedLogFile(std::string path, int fd, std::uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;  ///< end of the last whole entry in the file
  bool wedged_ = false;     ///< a torn write could not be rolled back
};

/// Where a scan stopped: whether a torn / corrupt tail was skipped (and
/// why).
struct FramedLogTail {
  bool truncated_tail = false;  ///< a trailing partial/corrupt entry existed
  std::string tail_error;       ///< human-readable reason when truncated
};

/// Streams every intact entry to `visit`, in file order, without holding
/// the file in memory.  A visitor that returns an error stops the scan and
/// marks the tail truncated with that error's message - a caller that
/// cannot decode an entry keeps the prefix before it.  NotFound for a
/// missing file, ParseError for bad magic.
[[nodiscard]] Result<FramedLogTail> scan_framed_log(
    const std::string& path, const LogMagic& magic,
    const std::function<Status(const FrameExtent&,
                               std::span<const std::uint8_t>)>& visit);

/// Result of reading a framed log: the intact entry payloads, plus whether
/// a torn / corrupt tail was skipped (and why).
struct FramedLogContents : FramedLogTail {
  std::vector<std::vector<std::uint8_t>> entries;
};

/// Reads every intact entry.  NotFound for a missing file, ParseError for
/// bad magic; mid-file corruption after intact entries is reported via
/// `truncated_tail`.
[[nodiscard]] Result<FramedLogContents> read_framed_log(
    const std::string& path, const LogMagic& magic);

/// Atomically replaces `path` with a fresh log holding `entries`, via a
/// temp file + rename.  The old contents survive any crash before the
/// rename commits.  Returns the new file, open for appends - a writer that
/// held the old file swaps to it, since the old descriptor now points at
/// an unlinked inode.
[[nodiscard]] Result<FramedLogFile> framed_log_rewrite(
    const std::string& path, const LogMagic& magic,
    std::span<const std::vector<std::uint8_t>> entries);

}  // namespace ptm
