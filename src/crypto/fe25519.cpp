#include "crypto/fe25519.hpp"

#include <cstring>

namespace setchain::crypto {

namespace {

constexpr std::uint64_t kMask = (std::uint64_t{1} << 51) - 1;

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // little-endian host assumed (x86/ARM); asserted in tests
}

/// Weak carry propagation: brings limbs below 2^52 (enough headroom for the
/// next multiplication).
inline void carry_weak(std::array<std::uint64_t, 5>& v) {
  std::uint64_t c;
  c = v[0] >> 51; v[0] &= kMask; v[1] += c;
  c = v[1] >> 51; v[1] &= kMask; v[2] += c;
  c = v[2] >> 51; v[2] &= kMask; v[3] += c;
  c = v[3] >> 51; v[3] &= kMask; v[4] += c;
  c = v[4] >> 51; v[4] &= kMask; v[0] += c * 19;
  c = v[0] >> 51; v[0] &= kMask; v[1] += c;
}

}  // namespace

Fe Fe::from_u64(std::uint64_t x) {
  Fe r;
  r.v[0] = x & kMask;
  r.v[1] = x >> 51;
  return r;
}

Fe Fe::from_bytes(codec::ByteView b) {
  Fe r;
  r.v[0] = load64(b.data()) & kMask;
  r.v[1] = (load64(b.data() + 6) >> 3) & kMask;
  r.v[2] = (load64(b.data() + 12) >> 6) & kMask;
  r.v[3] = (load64(b.data() + 19) >> 1) & kMask;
  r.v[4] = (load64(b.data() + 24) >> 12) & kMask;
  return r;
}

std::array<std::uint8_t, 32> Fe::to_bytes() const {
  std::array<std::uint64_t, 5> t = v;
  carry_weak(t);
  carry_weak(t);

  // Freeze: add 19 and check whether the sum overflows 2^255; if so the
  // value was >= p and we subtract p (i.e. keep the +19 and drop bit 255).
  std::uint64_t q = (t[0] + 19) >> 51;
  q = (t[1] + q) >> 51;
  q = (t[2] + q) >> 51;
  q = (t[3] + q) >> 51;
  q = (t[4] + q) >> 51;

  t[0] += 19 * q;
  std::uint64_t c;
  c = t[0] >> 51; t[0] &= kMask; t[1] += c;
  c = t[1] >> 51; t[1] &= kMask; t[2] += c;
  c = t[2] >> 51; t[2] &= kMask; t[3] += c;
  c = t[3] >> 51; t[3] &= kMask; t[4] += c;
  t[4] &= kMask;  // drop bit 255 (that subtracts 2^255, completing -p)

  std::array<std::uint8_t, 32> out{};
  const std::uint64_t w0 = t[0] | (t[1] << 51);
  const std::uint64_t w1 = (t[1] >> 13) | (t[2] << 38);
  const std::uint64_t w2 = (t[2] >> 26) | (t[3] << 25);
  const std::uint64_t w3 = (t[3] >> 39) | (t[4] << 12);
  std::memcpy(out.data() + 0, &w0, 8);
  std::memcpy(out.data() + 8, &w1, 8);
  std::memcpy(out.data() + 16, &w2, 8);
  std::memcpy(out.data() + 24, &w3, 8);
  return out;
}

bool Fe::is_zero() const {
  const auto b = to_bytes();
  for (auto x : b)
    if (x != 0) return false;
  return true;
}

bool Fe::is_negative() const { return to_bytes()[0] & 1; }

Fe operator+(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  carry_weak(r.v);
  return r;
}

Fe operator-(const Fe& a, const Fe& b) {
  // a + 2p - b, limbwise, keeps everything nonnegative.
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  carry_weak(r.v);
  return r;
}

namespace {

using u128 = unsigned __int128;

/// Carry the five 128-bit column sums of a product down to limbs below
/// 2^51 + 2^9. Input limbs are below 2^52, so column sums stay under 2^111
/// and every carry fits 64 bits; the top column holds no x19 terms, so its
/// carry times 19 stays under 2^60.
inline Fe carry_product(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  Fe out;
  r1 += static_cast<std::uint64_t>(r0 >> 51);
  r2 += static_cast<std::uint64_t>(r1 >> 51);
  r3 += static_cast<std::uint64_t>(r2 >> 51);
  r4 += static_cast<std::uint64_t>(r3 >> 51);
  out.v[0] = (static_cast<std::uint64_t>(r0) & kMask) +
             19 * static_cast<std::uint64_t>(r4 >> 51);
  out.v[1] = (static_cast<std::uint64_t>(r1) & kMask) + (out.v[0] >> 51);
  out.v[0] &= kMask;
  out.v[2] = static_cast<std::uint64_t>(r2) & kMask;
  out.v[3] = static_cast<std::uint64_t>(r3) & kMask;
  out.v[4] = static_cast<std::uint64_t>(r4) & kMask;
  return out;
}

}  // namespace

Fe operator*(const Fe& a, const Fe& b) {
  const std::uint64_t f0 = a.v[0], f1 = a.v[1], f2 = a.v[2], f3 = a.v[3], f4 = a.v[4];
  const std::uint64_t g0 = b.v[0], g1 = b.v[1], g2 = b.v[2], g3 = b.v[3], g4 = b.v[4];
  // 2^255 == 19 (mod p): the wrapped columns take 19*g, folded into a
  // 64-bit limb (limbs stay below 2^52, so 19*g < 2^57) before the product.
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  return carry_product(
      (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 + (u128)f3 * g2_19 + (u128)f4 * g1_19,
      (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 + (u128)f4 * g2_19,
      (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 + (u128)f4 * g3_19,
      (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 + (u128)f4 * g4_19,
      (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 + (u128)f4 * g0);
}

Fe Fe::square() const {
  // The cross terms f_i*f_j (i != j) appear twice: 15 products, not 25.
  const std::uint64_t f0 = v[0], f1 = v[1], f2 = v[2], f3 = v[3], f4 = v[4];
  const std::uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  const std::uint64_t f3_38 = 2 * f3_19, f4_38 = 2 * f4_19;

  return carry_product(
      (u128)f0 * f0 + (u128)f1 * f4_38 + (u128)f2 * f3_38,
      (u128)f0_2 * f1 + (u128)f2 * f4_38 + (u128)f3 * f3_19,
      (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)f3 * f4_38,
      (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4 * f4_19,
      (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2);
}

Fe Fe::negate() const { return Fe::zero() - *this; }

namespace {

/// x^(2^n): n successive squarings.
Fe square_times(Fe x, int n) {
  for (int i = 0; i < n; ++i) x = x.square();
  return x;
}

/// The shared head of the ref10 addition chains for p-2 and (p-5)/8:
/// returns z^(2^250 - 1) and sets z11 = z^11. 249 squarings, 9 multiplies.
Fe pow_2_250_minus_1(const Fe& z, Fe& z11) {
  const Fe z2 = z.square();
  const Fe z9 = square_times(z2, 2) * z;
  z11 = z9 * z2;
  const Fe e5 = z11.square() * z9;            // 2^5 - 1
  const Fe e10 = square_times(e5, 5) * e5;     // 2^10 - 1
  const Fe e20 = square_times(e10, 10) * e10;  // 2^20 - 1
  const Fe e40 = square_times(e20, 20) * e20;  // 2^40 - 1
  const Fe e50 = square_times(e40, 10) * e10;  // 2^50 - 1
  const Fe e100 = square_times(e50, 50) * e50;     // 2^100 - 1
  const Fe e200 = square_times(e100, 100) * e100;  // 2^200 - 1
  return square_times(e200, 50) * e50;             // 2^250 - 1
}

/// z^((p-5)/8) = z^(2^252 - 3): 251 squarings, 10 multiplies.
Fe pow_p58(const Fe& z) {
  Fe z11;
  return square_times(pow_2_250_minus_1(z, z11), 2) * z;
}

}  // namespace

Fe Fe::invert() const {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11: 254 squarings, 11 multiplies.
  Fe z11;
  return square_times(pow_2_250_minus_1(*this, z11), 5) * z11;
}

bool Fe::equals(const Fe& o) const { return to_bytes() == o.to_bytes(); }

namespace fe_const {

const Fe& d() {
  static const Fe kD = [] {
    const Fe num = Fe::from_u64(121665).negate();
    const Fe den = Fe::from_u64(121666).invert();
    return num * den;
  }();
  return kD;
}

const Fe& d2() {
  static const Fe kD2 = d() + d();
  return kD2;
}

const Fe& sqrt_m1() {
  // 2^((p-1)/4) mod p, little-endian.
  static const Fe kSqrtM1 = [] {
    static constexpr std::uint8_t kBytes[32] = {
        0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f,
        0xad, 0x06, 0x18, 0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00,
        0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};
    return Fe::from_bytes(codec::ByteView(kBytes, sizeof kBytes));
  }();
  return kSqrtM1;
}

}  // namespace fe_const

bool fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& x) {
  // RFC 8032 section 5.1.3: candidate root of u/v.
  const Fe v3 = v.square() * v;
  const Fe v7 = v3.square() * v;
  Fe cand = u * v3 * pow_p58(u * v7);

  const Fe check = v * cand.square();
  if (check.equals(u)) {
    x = cand;
    return true;
  }
  if (check.equals(u.negate())) {
    x = cand * fe_const::sqrt_m1();
    return true;
  }
  return false;
}

}  // namespace setchain::crypto
