#pragma once

#include <array>
#include <cstdint>

#include "codec/bytes.hpp"

namespace setchain::crypto {

/// Field element of GF(2^255 - 19) in 5 radix-2^51 limbs (the classic
/// unsaturated representation: products of two 51+epsilon-bit limbs fit in
/// __int128 accumulators with room for the 19-fold reduction terms).
///
/// Not constant-time: this library signs simulation traffic, not secrets.
struct Fe {
  std::array<std::uint64_t, 5> v{};

  static Fe zero() { return {}; }
  static Fe one() {
    Fe r;
    r.v[0] = 1;
    return r;
  }
  static Fe from_u64(std::uint64_t x);

  /// Load 32 little-endian bytes; the top bit (bit 255) is ignored, per the
  /// RFC 8032 encoding of field elements.
  static Fe from_bytes(codec::ByteView bytes32);

  /// Store as 32 little-endian bytes, fully reduced mod p.
  std::array<std::uint8_t, 32> to_bytes() const;

  bool is_zero() const;
  /// Parity of the fully-reduced value (used as the x sign bit).
  bool is_negative() const;

  friend Fe operator+(const Fe& a, const Fe& b);
  friend Fe operator-(const Fe& a, const Fe& b);
  friend Fe operator*(const Fe& a, const Fe& b);
  Fe square() const;
  Fe negate() const;

  /// a^(p-2) through the fixed ref10 addition chain (254 squarings, 11
  /// multiplies): multiplicative inverse (0 maps to 0).
  Fe invert() const;

  bool equals(const Fe& o) const;
};

/// Curve constants:
///   d       = -121665/121666 mod p, derived at first use
///   sqrt(-1)= 2^((p-1)/4) mod p, a literal (its square is checked in tests)
namespace fe_const {
const Fe& d();        ///< Edwards d
const Fe& d2();       ///< 2d
const Fe& sqrt_m1();  ///< sqrt(-1)
}  // namespace fe_const

/// Square root of (u/v) per RFC 8032 decompression: returns false when u/v is
/// not a quadratic residue. On success x satisfies v*x^2 == u. The exponent
/// (p-5)/8 runs through a fixed addition chain (251 squarings, 10 multiplies).
bool fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& x);

}  // namespace setchain::crypto
