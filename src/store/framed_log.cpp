#include "store/framed_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "common/crc32.hpp"

namespace ptm {
namespace {

std::array<std::uint8_t, 4> le_u32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::string errno_text() { return std::strerror(errno); }

/// Appends one entry - length | payload | crc - to `fd`, whose whole
/// entries end at `end`, with a single writev.  Whatever a failed or short
/// write left is truncated back to `end`; `torn` reports a rollback that
/// failed too.
Status write_entry(int fd, std::uint64_t end,
                   std::span<const std::uint8_t> payload,
                   const std::string& path, bool& torn) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    return {ErrorCode::kInvalidArgument, "entry too large for " + path};
  }
  auto length = le_u32(static_cast<std::uint32_t>(payload.size()));
  auto crc = le_u32(crc32(payload));
  iovec parts[3] = {
      {length.data(), length.size()},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()},
      {crc.data(), crc.size()}};
  const auto total = static_cast<ssize_t>(payload.size() + 8);
  ssize_t written = 0;
  do {
    written = ::writev(fd, parts, 3);
  } while (written < 0 && errno == EINTR);
  if (written == total) return Status::ok();
  std::string why = written < 0 ? errno_text() : "short write";
  if (::ftruncate(fd, static_cast<off_t>(end)) != 0) torn = true;
  return {ErrorCode::kInternal, "append to " + path + " failed: " + why};
}

}  // namespace

Result<FramedLogFile> FramedLogFile::open(const std::string& path,
                                          const LogMagic& magic) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status{ErrorCode::kInternal,
                  "cannot open " + path + ": " + errno_text()};
  }
  FramedLogFile file(path, fd, 0);  // closes fd on every early return
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Status{ErrorCode::kInternal,
                  "cannot stat " + path + ": " + errno_text()};
  }
  if (st.st_size == 0) {
    if (::write(fd, magic.data(), magic.size()) !=
        static_cast<ssize_t>(magic.size())) {
      (void)::ftruncate(fd, 0);
      return Status{ErrorCode::kInternal, "cannot write header to " + path};
    }
    file.size_ = magic.size();
    return file;
  }
  char header[8] = {};
  if (::pread(fd, header, sizeof(header), 0) !=
          static_cast<ssize_t>(sizeof(header)) ||
      std::memcmp(header, magic.data(), magic.size()) != 0) {
    return Status{ErrorCode::kFailedPrecondition,
                  path + " exists but holds a different file format"};
  }
  file.size_ = static_cast<std::uint64_t>(st.st_size);
  return file;
}

FramedLogFile::FramedLogFile(FramedLogFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      wedged_(other.wedged_) {}

FramedLogFile& FramedLogFile::operator=(FramedLogFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    size_ = other.size_;
    wedged_ = other.wedged_;
  }
  return *this;
}

FramedLogFile::~FramedLogFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<FrameExtent> FramedLogFile::append(
    std::span<const std::uint8_t> payload) {
  if (wedged_) {
    return Status{ErrorCode::kInternal,
                  path_ + " holds a torn entry that could not be rolled "
                          "back; reopen it to heal"};
  }
  if (Status s = write_entry(fd_, size_, payload, path_, wedged_);
      !s.is_ok()) {
    return s;
  }
  const FrameExtent extent{size_ + 4,
                           static_cast<std::uint32_t>(payload.size())};
  size_ += payload.size() + 8;
  return extent;
}

Result<std::vector<std::uint8_t>> FramedLogFile::read(
    const FrameExtent& extent) const {
  std::vector<std::uint8_t> bytes(std::size_t{extent.length} + 4);
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::pread(fd_, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(extent.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status{ErrorCode::kInternal,
                    "cannot read " + path_ + ": " + errno_text()};
    }
    if (n == 0) {
      return Status{ErrorCode::kParseError,
                    path_ + ": short read of the entry at offset " +
                        std::to_string(extent.offset)};
    }
    got += static_cast<std::size_t>(n);
  }
  const std::span<const std::uint8_t> payload(bytes.data(), extent.length);
  if (crc32(payload) != get_u32(bytes.data() + extent.length)) {
    return Status{ErrorCode::kParseError,
                  path_ + ": crc mismatch in the entry at offset " +
                      std::to_string(extent.offset)};
  }
  bytes.resize(extent.length);
  return bytes;
}

Status FramedLogFile::rename(const std::string& to) {
  if (std::rename(path_.c_str(), to.c_str()) != 0) {
    return {ErrorCode::kInternal,
            "cannot rename " + path_ + " to " + to + ": " + errno_text()};
  }
  path_ = to;
  return Status::ok();
}

Result<FramedLogTail> scan_framed_log(
    const std::string& path, const LogMagic& magic,
    const std::function<Status(const FrameExtent&,
                               std::span<const std::uint8_t>)>& visit) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status{ErrorCode::kNotFound, "cannot open " + path};
  }
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char header[8] = {};
  if (file_size < sizeof(header) || !in.read(header, sizeof(header)) ||
      std::memcmp(header, magic.data(), magic.size()) != 0) {
    return Status{ErrorCode::kParseError, path + ": bad log magic"};
  }

  FramedLogTail tail;
  const auto torn = [&tail](std::string why) {
    tail.truncated_tail = true;
    tail.tail_error = std::move(why);
  };
  std::vector<std::uint8_t> entry;
  std::uint64_t pos = sizeof(header);
  while (pos < file_size) {
    std::uint8_t prefix[4];
    if (pos + 4 > file_size ||
        !in.read(reinterpret_cast<char*>(prefix), sizeof(prefix))) {
      torn("torn length prefix");
      break;
    }
    const std::uint32_t length = get_u32(prefix);
    if (pos + 4 + length + 4 > file_size) {
      torn("torn entry body");
      break;
    }
    entry.resize(std::size_t{length} + 4);
    if (!in.read(reinterpret_cast<char*>(entry.data()),
                 static_cast<std::streamsize>(entry.size()))) {
      torn("torn entry body");
      break;
    }
    const std::span<const std::uint8_t> payload(entry.data(), length);
    if (crc32(payload) != get_u32(entry.data() + length)) {
      torn("crc mismatch");
      break;
    }
    if (Status s = visit(FrameExtent{pos + 4, length}, payload); !s.is_ok()) {
      torn(s.message());
      break;
    }
    pos += 4 + std::uint64_t{length} + 4;
  }
  return tail;
}

Result<FramedLogContents> read_framed_log(const std::string& path,
                                          const LogMagic& magic) {
  FramedLogContents contents;
  auto tail = scan_framed_log(
      path, magic,
      [&contents](const FrameExtent&, std::span<const std::uint8_t> payload) {
        contents.entries.emplace_back(payload.begin(), payload.end());
        return Status::ok();
      });
  if (!tail) return tail.status();
  static_cast<FramedLogTail&>(contents) = std::move(*tail);
  return contents;
}

Result<FramedLogFile> framed_log_rewrite(
    const std::string& path, const LogMagic& magic,
    std::span<const std::vector<std::uint8_t>> entries) {
  const std::string temp_path = path + ".rewrite";
  std::remove(temp_path.c_str());
  auto file = FramedLogFile::open(temp_path, magic);
  if (!file) return file.status();
  for (const auto& payload : entries) {
    if (auto written = file->append(payload); !written) {
      std::remove(temp_path.c_str());
      return written.status();
    }
  }
  if (Status s = file->rename(path); !s.is_ok()) {
    std::remove(temp_path.c_str());
    return s;
  }
  return file;
}

}  // namespace ptm
