// bitmap.hpp - dense bit array, the physical representation of a traffic
// record (paper §II-D).
//
// An RSU's traffic record is an m-bit bitmap; the whole measurement pipeline
// reduces to setting bits, counting zeros, ANDing/ORing equal-sized bitmaps,
// and replicating a bitmap to a larger power-of-two size (§III-A expansion).
// This class provides exactly those operations over packed 64-bit words.
//
// The word loops themselves live in ptm::simd (src/simd/kernels.hpp): a
// runtime-dispatched vtable with scalar / POPCNT / AVX2 / AVX-512 / NEON
// variants.  Bitmap is the bit-level API; every counting and join method
// below routes through simd::active(), so changing the dispatched variant
// changes every estimator's inner loop at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"

namespace ptm {

class ByteWriter;

class Bitmap {
 public:
  /// Empty bitmap (0 bits).
  Bitmap() = default;

  /// All-zero bitmap of `bit_count` bits.
  explicit Bitmap(std::size_t bit_count);

  [[nodiscard]] std::size_t size() const noexcept { return bit_count_; }
  [[nodiscard]] bool empty() const noexcept { return bit_count_ == 0; }

  /// Sets bit `index` to one.  Precondition: index < size().
  void set(std::size_t index) noexcept;

  /// Clears bit `index`.  Precondition: index < size().
  void reset(std::size_t index) noexcept;

  /// Value of bit `index`.  Precondition: index < size().
  [[nodiscard]] bool test(std::size_t index) const noexcept;

  /// Resets every bit to zero (start of a new measurement period).
  void clear() noexcept;

  /// Sets every bit to one (the neutral seed of an AND cascade).
  void set_all() noexcept;

  /// Re-shapes to `bit_count` all-zero bits, reusing the existing word
  /// storage when it is large enough (no allocation then).  This is the
  /// BitmapPool recycling hook; semantically identical to
  /// `*this = Bitmap(bit_count)`.
  void reshape(std::size_t bit_count);

  /// Overwrites this bitmap with `small` replicated to `target_bits`
  /// (in-place counterpart of replicate_to, for pooled buffers).  Requires
  /// a non-empty `small` whose size divides `target_bits`.
  Status assign_replicated(const Bitmap& small, std::size_t target_bits);

  /// Number of one-bits / zero-bits (popcount over words).
  [[nodiscard]] std::size_t count_ones() const noexcept;
  [[nodiscard]] std::size_t count_zeros() const noexcept {
    return bit_count_ - count_ones();
  }

  /// Fraction of bits that are zero (the V_0 of Eq. 1) / one.
  /// Precondition: size() > 0.
  [[nodiscard]] double fraction_zeros() const noexcept;
  [[nodiscard]] double fraction_ones() const noexcept {
    return 1.0 - fraction_zeros();
  }

  /// In-place bitwise AND / OR with an equal-sized bitmap.
  /// Returns InvalidArgument if sizes differ.
  Status and_with(const Bitmap& other) noexcept;
  Status or_with(const Bitmap& other) noexcept;

  /// Tiled (lazy-expansion) joins: in-place AND / OR against the *virtual*
  /// replication of `small` to this bitmap's size (paper Fig. 2).  A
  /// replicated bitmap is periodic, so `word[i] OP= small_word[i mod s]`
  /// applies the join directly - the expanded copy is never materialized
  /// and no allocation happens.  Bit-for-bit identical to
  /// `op_with(*small.replicate_to(size()))`.
  /// Returns InvalidArgument unless small is non-empty and small.size()
  /// divides size() (guaranteed when both are powers of two, Eq. 2).
  Status and_with_tiled(const Bitmap& small) noexcept;
  Status or_with_tiled(const Bitmap& small) noexcept;

  /// Replication expansion (paper Fig. 2): returns a bitmap of
  /// `target_bits` bits consisting of this bitmap repeated
  /// `target_bits / size()` times.  Requires target_bits to be a positive
  /// multiple of size(); the paper guarantees this by making every bitmap
  /// size a power of two (Eq. 2).
  [[nodiscard]] Result<Bitmap> replicate_to(std::size_t target_bits) const;

  /// Raw word access (read-only), for tests and serialization.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Serialization: 8-byte little-endian bit count followed by the packed
  /// words.  `deserialize` validates the length.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Appends exactly serialized_size() bytes - serialize()'s - to `w`,
  /// copying whole words.
  void serialize_into(ByteWriter& w) const;
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return 8 + words_.size() * 8;
  }
  [[nodiscard]] static Result<Bitmap> deserialize(
      std::span<const std::uint8_t> bytes);

  friend bool operator==(const Bitmap& a, const Bitmap& b) noexcept {
    return a.bit_count_ == b.bit_count_ && a.words_ == b.words_;
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }
  /// Mask of valid bits in the final word (all-ones when size is a
  /// multiple of 64).  Maintained so count/compare never see stray bits.
  [[nodiscard]] std::uint64_t tail_mask() const noexcept;

  std::size_t bit_count_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Free-function joins returning a fresh bitmap; sizes must match.
[[nodiscard]] Result<Bitmap> bitmap_and(const Bitmap& a, const Bitmap& b);
[[nodiscard]] Result<Bitmap> bitmap_or(const Bitmap& a, const Bitmap& b);

/// Fused join-and-count kernels: the number of one-bits of the AND (resp.
/// zero-bits of the OR) of the virtual replications of `a` and `b` to
/// `m_bits`, computed word-by-word with zero allocations - no expanded
/// bitmap and no join result is ever built.  These are the innermost loops
/// of every estimator (Eqs. 12/21 and the corridor union).
/// Returns InvalidArgument unless both bitmaps are non-empty and their
/// sizes divide `m_bits`.
[[nodiscard]] Result<std::size_t> tiled_and_count_ones(const Bitmap& a,
                                                       const Bitmap& b,
                                                       std::size_t m_bits);
[[nodiscard]] Result<std::size_t> tiled_or_count_zeros(const Bitmap& a,
                                                       const Bitmap& b,
                                                       std::size_t m_bits);

/// One-bit counts of the virtual replications of `a`, `b`, and of their
/// AND, all at `m_bits` - the whole Eq. 12 measurement triple in a single
/// sweep.  When both operands are already at `m_bits` the three popcounts
/// share one pass over the two word arrays; otherwise the individual
/// counts are scaled from each operand's own size (replication multiplies
/// the one count by the copy factor, exactly) and only the AND is swept.
struct TiledTripleCount {
  std::size_t ones_a = 0;    ///< ones of expand(a, m)
  std::size_t ones_b = 0;    ///< ones of expand(b, m)
  std::size_t ones_and = 0;  ///< ones of expand(a, m) AND expand(b, m)
};
[[nodiscard]] Result<TiledTripleCount> tiled_and_triple_count(
    const Bitmap& a, const Bitmap& b, std::size_t m_bits);

}  // namespace ptm
