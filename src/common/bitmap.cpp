#include "common/bitmap.hpp"

#include <bit>
#include <cassert>
#include <cstring>

#include "common/math.hpp"
#include "common/serialize.hpp"
#include "simd/kernels.hpp"

namespace ptm {

Bitmap::Bitmap(std::size_t bit_count)
    : bit_count_(bit_count), words_(ceil_div(bit_count, kWordBits), 0) {}

void Bitmap::set(std::size_t index) noexcept {
  assert(index < bit_count_);
  words_[index / kWordBits] |= (1ULL << (index % kWordBits));
}

void Bitmap::reset(std::size_t index) noexcept {
  assert(index < bit_count_);
  words_[index / kWordBits] &= ~(1ULL << (index % kWordBits));
}

bool Bitmap::test(std::size_t index) const noexcept {
  assert(index < bit_count_);
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1ULL;
}

void Bitmap::clear() noexcept {
  std::fill(words_.begin(), words_.end(), 0ULL);
}

void Bitmap::set_all() noexcept {
  simd::active().fill(words_.data(), ~0ULL, words_.size());
  if (!words_.empty()) words_.back() &= tail_mask();
}

void Bitmap::reshape(std::size_t bit_count) {
  bit_count_ = bit_count;
  words_.assign(ceil_div(bit_count, kWordBits), 0ULL);
}

Status Bitmap::assign_replicated(const Bitmap& small,
                                 std::size_t target_bits) {
  if (small.bit_count_ == 0 || target_bits == 0 ||
      target_bits % small.bit_count_ != 0) {
    return {ErrorCode::kInvalidArgument,
            "replication target must be a positive multiple of the source "
            "size"};
  }
  const std::size_t copies = target_bits / small.bit_count_;
  if (small.bit_count_ % kWordBits == 0) {
    bit_count_ = target_bits;
    words_.resize(copies * small.words_.size());
    simd::active().replicate(words_.data(), small.words_.data(),
                             small.words_.size(), copies);
    return Status::ok();
  }
  reshape(target_bits);
  for (std::size_t i = 0; i < small.bit_count_; ++i) {
    if (!small.test(i)) continue;
    for (std::size_t c = 0; c < copies; ++c) set(c * small.bit_count_ + i);
  }
  return Status::ok();
}

std::uint64_t Bitmap::tail_mask() const noexcept {
  const std::size_t rem = bit_count_ % kWordBits;
  return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
}

std::size_t Bitmap::count_ones() const noexcept {
  // Tail bits beyond size() are zero by class invariant, so the raw word
  // sweep needs no mask.
  return simd::active().popcount(words_.data(), words_.size());
}

double Bitmap::fraction_zeros() const noexcept {
  assert(bit_count_ > 0);
  return static_cast<double>(count_zeros()) / static_cast<double>(bit_count_);
}

namespace {

/// A sub-word bitmap (size dividing 64) replicated across one 64-bit word.
std::uint64_t pattern_word(const Bitmap& src) noexcept {
  const auto words = src.words();
  const std::uint64_t base = words.empty() ? 0 : words[0];
  std::uint64_t pattern = 0;
  for (std::size_t off = 0; off < 64; off += src.size()) {
    pattern |= base << off;
  }
  return pattern;
}

/// Sequential word stream of the virtual replication of `src` to a larger
/// bit count - the i-th next() call yields word i.  Three shapes, all
/// allocation-free:
///  * word-aligned source (size % 64 == 0): a wrapping cursor over the
///    source words - one load plus a predictable branch per word;
///  * sub-word source dividing 64: one precomputed pattern word serves
///    every position (the replication period divides the word width);
///  * any other divisor: per-bit gather (correct but slow; unreachable
///    with the project's power-of-two sizes).
class TileReader {
 public:
  explicit TileReader(const Bitmap& src) noexcept
      : words_(src.words()), s_bits_(src.size()), src_(&src) {
    if (s_bits_ % 64 == 0) {
      mode_ = Mode::kAligned;
    } else if (64 % s_bits_ == 0) {
      mode_ = Mode::kPattern;
      pattern_ = pattern_word(src);
    } else {
      mode_ = Mode::kGather;
    }
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    switch (mode_) {
      case Mode::kAligned: {
        const std::uint64_t w = words_[cursor_];
        if (++cursor_ == words_.size()) cursor_ = 0;
        return w;
      }
      case Mode::kPattern:
        return pattern_;
      case Mode::kGather:
      default: {
        std::uint64_t w = 0;
        const std::size_t base_bit = word_index_++ * 64;
        for (std::size_t j = 0; j < 64; ++j) {
          if (src_->test((base_bit + j) % s_bits_)) w |= 1ULL << j;
        }
        return w;
      }
    }
  }

 private:
  enum class Mode { kAligned, kPattern, kGather };
  std::span<const std::uint64_t> words_;
  std::size_t s_bits_;
  const Bitmap* src_;
  std::uint64_t pattern_ = 0;
  std::size_t cursor_ = 0;
  std::size_t word_index_ = 0;
  Mode mode_ = Mode::kAligned;
};

Status check_tile_operand(std::size_t small_bits,
                          std::size_t target_bits) noexcept {
  if (small_bits == 0 || target_bits == 0 ||
      target_bits % small_bits != 0) {
    return {ErrorCode::kInvalidArgument,
            "tiled join needs a non-empty operand whose size divides the "
            "target size"};
  }
  return Status::ok();
}

}  // namespace

Status Bitmap::and_with_tiled(const Bitmap& small) noexcept {
  if (Status s = check_tile_operand(small.bit_count_, bit_count_);
      !s.is_ok()) {
    return s;
  }
  if (small.bit_count_ == bit_count_) return and_with(small);
  if (small.bit_count_ % kWordBits == 0) {
    // Word-aligned tile: the kernel folds the periodic source in
    // contiguous period-sized runs.
    simd::active().and_tiled(words_.data(), words_.size(),
                             small.words().data(), small.words().size());
  } else if (kWordBits % small.bit_count_ == 0) {
    const std::uint64_t pattern = pattern_word(small);
    for (std::uint64_t& w : words_) w &= pattern;
  } else {
    TileReader tile(small);
    for (std::uint64_t& w : words_) w &= tile.next();
  }
  // Our own tail bits were zero and AND keeps them zero: invariant holds.
  return Status::ok();
}

Status Bitmap::or_with_tiled(const Bitmap& small) noexcept {
  if (Status s = check_tile_operand(small.bit_count_, bit_count_);
      !s.is_ok()) {
    return s;
  }
  if (small.bit_count_ == bit_count_) return or_with(small);
  if (small.bit_count_ % kWordBits == 0) {
    simd::active().or_tiled(words_.data(), words_.size(),
                            small.words().data(), small.words().size());
  } else if (kWordBits % small.bit_count_ == 0) {
    const std::uint64_t pattern = pattern_word(small);
    for (std::uint64_t& w : words_) w |= pattern;
  } else {
    TileReader tile(small);
    for (std::uint64_t& w : words_) w |= tile.next();
  }
  // A sub-word pattern fills all 64 bits; re-zero anything past size().
  if (!words_.empty()) words_.back() &= tail_mask();
  return Status::ok();
}

Status Bitmap::and_with(const Bitmap& other) noexcept {
  if (other.bit_count_ != bit_count_) {
    return {ErrorCode::kInvalidArgument, "bitmap sizes differ in AND"};
  }
  simd::active().and_inplace(words_.data(), other.words_.data(),
                             words_.size());
  return Status::ok();
}

Status Bitmap::or_with(const Bitmap& other) noexcept {
  if (other.bit_count_ != bit_count_) {
    return {ErrorCode::kInvalidArgument, "bitmap sizes differ in OR"};
  }
  simd::active().or_inplace(words_.data(), other.words_.data(),
                            words_.size());
  return Status::ok();
}

Result<Bitmap> Bitmap::replicate_to(std::size_t target_bits) const {
  if (bit_count_ == 0) {
    return Status{ErrorCode::kFailedPrecondition,
                  "cannot expand an empty bitmap"};
  }
  if (target_bits % bit_count_ != 0 || target_bits == 0) {
    return Status{ErrorCode::kInvalidArgument,
                  "expansion target must be a positive multiple of the size"};
  }
  // The common case in this project is word-aligned (sizes are powers of two
  // >= 64), where replication appends whole source words; the append fills
  // every word, so the usual zero-initializing construction would write the
  // buffer twice.  Fall back to bit-by-bit for small or unaligned sizes.
  const std::size_t copies = target_bits / bit_count_;
  if (bit_count_ % kWordBits == 0) {
    Bitmap out;
    out.bit_count_ = target_bits;
    out.words_.reserve(copies * words_.size());
    for (std::size_t c = 0; c < copies; ++c) {
      out.words_.insert(out.words_.end(), words_.begin(), words_.end());
    }
    return out;
  }
  Bitmap out(target_bits);
  for (std::size_t i = 0; i < bit_count_; ++i) {
    if (!test(i)) continue;
    for (std::size_t c = 0; c < copies; ++c) out.set(c * bit_count_ + i);
  }
  return out;
}

std::vector<std::uint8_t> Bitmap::serialize() const {
  ByteWriter w;
  serialize_into(w);
  return w.take();
}

void Bitmap::serialize_into(ByteWriter& w) const {
  // The bitmap is the only record-sized field of any message, so it sizes
  // the buffer for every encoder: its own bytes plus room for the few
  // fixed-size fields written after it (an outbox push's trace context).
  constexpr std::size_t kTrailerBytes = 32;
  w.reserve(serialized_size() + kTrailerBytes);
  w.u64(bit_count_);
  // Little-endian words are their own wire form (serialize.hpp).
  w.raw({reinterpret_cast<const std::uint8_t*>(words_.data()),
         words_.size() * sizeof(std::uint64_t)});
}

Result<Bitmap> Bitmap::deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) {
    return Status{ErrorCode::kParseError, "bitmap header truncated"};
  }
  std::uint64_t bit_count = 0;
  std::memcpy(&bit_count, bytes.data(), sizeof(bit_count));
  // ceil(bit_count / 64) without ceil_div's `+ 63`, which wraps for a
  // bit count near 2^64 and would accept a header with no words.
  const std::uint64_t expected_words =
      bit_count / kWordBits + (bit_count % kWordBits != 0 ? 1 : 0);
  if (bytes.size() != 8 + expected_words * 8) {
    return Status{ErrorCode::kParseError, "bitmap body length mismatch"};
  }
  Bitmap out(static_cast<std::size_t>(bit_count));
  std::memcpy(out.words_.data(), bytes.data() + 8, expected_words * 8);
  if (expected_words > 0 &&
      (out.words_.back() & ~out.tail_mask()) != 0) {
    return Status{ErrorCode::kParseError, "stray bits beyond bitmap size"};
  }
  return out;
}

Result<Bitmap> bitmap_and(const Bitmap& a, const Bitmap& b) {
  Bitmap out = a;
  if (Status s = out.and_with(b); !s.is_ok()) return s;
  return out;
}

Result<Bitmap> bitmap_or(const Bitmap& a, const Bitmap& b) {
  Bitmap out = a;
  if (Status s = out.or_with(b); !s.is_ok()) return s;
  return out;
}

namespace {

Result<std::size_t> tiled_count(const Bitmap& a, const Bitmap& b,
                                std::size_t m_bits, bool is_and) {
  if (a.empty() || b.empty() || m_bits == 0 || m_bits % a.size() != 0 ||
      m_bits % b.size() != 0) {
    return Status{ErrorCode::kInvalidArgument,
                  "fused count needs non-empty bitmaps whose sizes divide "
                  "the target size"};
  }
  const std::size_t n_words = ceil_div(m_bits, std::size_t{64});
  const simd::Kernels& kernels = simd::active();

  // Fast path 1: both operands already at the target size - one fused
  // op+count sweep (this is the split-stats shape: two half joins at m).
  // Both operands keep their tails zero by Bitmap invariant, so the raw
  // word sweep needs no mask.
  if (a.size() == m_bits && b.size() == m_bits) {
    const auto wa = a.words();
    const auto wb = b.words();
    return is_and ? kernels.and_count(wa.data(), wb.data(), n_words)
                  : kernels.or_count(wa.data(), wb.data(), n_words);
  }

  // Fast path 2: one full-size operand, one word-aligned smaller one -
  // blocked runs over the smaller period (the p2p second-level shape).
  // Word alignment of the smaller size forces m_bits % 64 == 0: no tail.
  const Bitmap* full = nullptr;
  const Bitmap* part = nullptr;
  if (a.size() == m_bits && b.size() % 64 == 0) {
    full = &a;
    part = &b;
  } else if (b.size() == m_bits && a.size() % 64 == 0) {
    full = &b;
    part = &a;
  }
  if (full != nullptr) {
    const auto wf = full->words();
    const auto wp = part->words();
    return is_and
               ? kernels.and_tiled_count(wf.data(), n_words, wp.data(),
                                         wp.size())
               : kernels.or_tiled_count(wf.data(), n_words, wp.data(),
                                        wp.size());
  }

  // General case: stream both virtual expansions word by word (sub-word
  // sizes only; unreachable with the project's power-of-two >= 64 maps).
  const std::size_t rem = m_bits % 64;
  const std::uint64_t last_mask = rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  std::size_t ones = 0;
  TileReader tile_a(a);
  TileReader tile_b(b);
  for (std::size_t i = 0; i < n_words; ++i) {
    const std::uint64_t x = tile_a.next();
    const std::uint64_t y = tile_b.next();
    std::uint64_t w = is_and ? (x & y) : (x | y);
    if (i + 1 == n_words) w &= last_mask;
    ones += static_cast<std::size_t>(std::popcount(w));
  }
  return ones;
}

}  // namespace

Result<std::size_t> tiled_and_count_ones(const Bitmap& a, const Bitmap& b,
                                         std::size_t m_bits) {
  return tiled_count(a, b, m_bits, /*is_and=*/true);
}

Result<std::size_t> tiled_or_count_zeros(const Bitmap& a, const Bitmap& b,
                                         std::size_t m_bits) {
  auto ones = tiled_count(a, b, m_bits, /*is_and=*/false);
  if (!ones) return ones.status();
  return m_bits - *ones;
}

Result<TiledTripleCount> tiled_and_triple_count(const Bitmap& a,
                                                const Bitmap& b,
                                                std::size_t m_bits) {
  if (a.empty() || b.empty() || m_bits == 0 || m_bits % a.size() != 0 ||
      m_bits % b.size() != 0) {
    return Status{ErrorCode::kInvalidArgument,
                  "fused count needs non-empty bitmaps whose sizes divide "
                  "the target size"};
  }
  TiledTripleCount out;
  if (a.size() == m_bits && b.size() == m_bits) {
    // The split-stats shape: both half joins at m.  One kernel sweep over
    // the two word arrays yields all three popcounts; tails are zero by
    // Bitmap invariant, so no mask is needed.
    const std::size_t n_words = ceil_div(m_bits, std::size_t{64});
    const simd::TripleCount t =
        simd::active().triple_count(a.words().data(), b.words().data(),
                                    n_words);
    out.ones_a = t.ones_a;
    out.ones_b = t.ones_b;
    out.ones_and = t.ones_and;
    return out;
  }
  // Mixed sizes: replication multiplies the one count by the (integral)
  // copy factor, so the individual counts come from each operand's own
  // size; only the AND needs a tiled sweep.
  out.ones_a = a.count_ones() * (m_bits / a.size());
  out.ones_b = b.count_ones() * (m_bits / b.size());
  auto ones = tiled_and_count_ones(a, b, m_bits);
  if (!ones) return ones.status();
  out.ones_and = *ones;
  return out;
}

}  // namespace ptm
