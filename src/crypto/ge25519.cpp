#include "crypto/ge25519.hpp"

#include <algorithm>
#include <vector>

namespace setchain::crypto {

namespace {

/// Width-w NAF: k = sum d[i]*2^i with every nonzero digit odd and
/// |d[i]| <= 2^(w-1) - 1, so consecutive nonzero digits are at least w
/// apart. 257 digits suffice for any 256-bit k (the centered-digit carry can
/// push one bit past the top). Variable time.
struct Naf {
  std::array<std::int8_t, 257> d{};
  int len = 0;  ///< highest nonzero index + 1
};

Naf wnaf(const U256& k, int w) {
  Naf out;
  // One spare word: subtracting a negative digit adds up to 2^(w-1).
  std::array<std::uint64_t, 5> v{};
  for (int i = 0; i < 4; ++i) v[i] = k.w[i];

  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  const std::int64_t half = std::int64_t{1} << (w - 1);
  const auto nonzero = [&v] {
    for (const auto x : v)
      if (x != 0) return true;
    return false;
  };

  int i = 0;
  while (nonzero()) {
    if (v[0] & 1) {
      std::int64_t d = static_cast<std::int64_t>(v[0] & mask);
      if (d >= half) d -= static_cast<std::int64_t>(mask) + 1;
      out.d[i] = static_cast<std::int8_t>(d);
      if (d > 0) {  // v -= d
        std::uint64_t borrow = static_cast<std::uint64_t>(d);
        for (std::size_t j = 0; j < v.size() && borrow; ++j) {
          const std::uint64_t before = v[j];
          v[j] = before - borrow;
          borrow = before < borrow ? 1 : 0;
        }
      } else {  // v += -d
        std::uint64_t carry = static_cast<std::uint64_t>(-d);
        for (std::size_t j = 0; j < v.size() && carry; ++j) {
          const std::uint64_t before = v[j];
          v[j] = before + carry;
          carry = v[j] < before ? 1 : 0;
        }
      }
    }
    for (std::size_t j = 0; j + 1 < v.size(); ++j) {
      v[j] = (v[j] >> 1) | (v[j + 1] << 63);
    }
    v.back() >>= 1;
    ++i;
  }
  out.len = i;
  return out;
}

/// A point prepared as the right-hand side of an addition (ref10's cached
/// form): (Y+X, Y-X, 2Z, 2d*T). Each addition of a cached point saves the
/// 2d*T multiply, and subtracting one swaps Y+X with Y-X and flips the sign
/// of 2d*T instead of negating the point.
struct Cached {
  Fe y_plus_x, y_minus_x, z2, t2d;
};

Cached to_cached(const Ge& p) {
  return Cached{p.Y + p.X, p.Y - p.X, p.Z + p.Z, p.T * fe_const::d2()};
}

/// The last step of both formulas, from the completed (E, F, G, H) form.
/// T = E*H is read only by an addition, so a caller whose next operation is
/// a doubling (or who reads the point only through X, Y, Z) skips it and
/// the result carries T = 0.
Ge finish(const Fe& E, const Fe& F, const Fe& G, const Fe& H, bool with_t) {
  return Ge{E * F, G * H, F * G, with_t ? E * H : Fe::zero()};
}

/// p + q, or p - q when `sub` (add-2008-hwcd-3 for a = -1, unified and
/// complete). Reads p.T.
Ge add_cached(const Ge& p, const Cached& q, bool sub, bool with_t) {
  const Fe A = (p.Y - p.X) * (sub ? q.y_plus_x : q.y_minus_x);
  const Fe B = (p.Y + p.X) * (sub ? q.y_minus_x : q.y_plus_x);
  const Fe C = p.T * q.t2d;
  const Fe D = p.Z * q.z2;
  const Fe E = B - A;
  const Fe H = B + A;
  return sub ? finish(E, D + C, D - C, H, with_t) : finish(E, D - C, D + C, H, with_t);
}

/// 2p (dbl-2008-hwcd for a = -1). Reads X, Y, Z only, so a run of
/// doublings needs T from none but the last.
Ge doubled(const Ge& p, bool with_t) {
  const Fe A = p.X.square();
  const Fe B = p.Y.square();
  const Fe ZZ = p.Z.square();
  const Fe AB = A + B;
  const Fe G = B - A;
  return finish((p.X + p.Y).square() - AB, G - (ZZ + ZZ), G, AB.negate(), with_t);
}

/// Odd multiples 1P, 3P, ..., (2N-1)P in cached form.
template <std::size_t N>
std::array<Cached, N> odd_multiples(const Ge& p) {
  std::array<Cached, N> out;
  out[0] = to_cached(p);
  const Cached p2 = to_cached(doubled(p, true));
  Ge cur = p;
  for (std::size_t i = 1; i < N; ++i) {
    cur = add_cached(cur, p2, false, true);
    out[i] = to_cached(cur);
  }
  return out;
}

using OddTable = std::array<Cached, 8>;  ///< 1P .. 15P for width-5 NAF digits

constexpr int kBaseWindow = 8;  ///< width-8 NAF for the fixed base point

/// 1B, 3B, ..., 127B, built once.
const std::array<Cached, 64>& base_odd_table() {
  static const std::array<Cached, 64> kTable = odd_multiples<64>(Ge::base());
  return kTable;
}

template <std::size_t N>
Ge add_digit(const Ge& acc, const std::array<Cached, N>& odd, int d, bool with_t) {
  return add_cached(acc, odd[static_cast<std::size_t>(d < 0 ? -d : d) >> 1], d < 0, with_t);
}

}  // namespace

Ge Ge::identity() {
  return Ge{Fe::zero(), Fe::one(), Fe::one(), Fe::zero()};
}

const Ge& Ge::base() {
  static const Ge kBase = [] {
    // y = 4/5 mod p; x recovered with even parity (the standard B).
    const Fe y = Fe::from_u64(4) * Fe::from_u64(5).invert();
    auto enc = y.to_bytes();  // sign bit 0 -> even x
    const auto p = Ge::decompress(codec::ByteView(enc.data(), enc.size()));
    return *p;  // must exist; validated by RFC 8032 vectors in tests
  }();
  return kBase;
}

Ge Ge::add(const Ge& o) const { return add_cached(*this, to_cached(o), false, true); }

Ge Ge::dbl() const { return doubled(*this, true); }

Ge Ge::negate() const { return Ge{X.negate(), Y, Z, T.negate()}; }

bool Ge::is_identity() const {
  // Projectively (0 : Z : Z : 0); the X check excludes the 2-torsion point
  // (0, -1), which also has X == 0 but Y == -Z.
  return X.is_zero() && (Y - Z).is_zero();
}

Ge Ge::scalar_mul(const U256& k) const {
  Ge acc = Ge::identity();
  const std::size_t bits = k.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = acc.dbl();
    if (k.bit(i)) acc = acc.add(*this);
  }
  return acc;
}

Ge Ge::scalar_mul_vartime(const U256& k) const {
  const ScalarPoint term{k, *this};
  return multi_scalar_mul(U256::zero(), std::span(&term, 1));
}

Ge Ge::base_scalar_mul(const U256& k) {
  return multi_scalar_mul(k, std::span<const ScalarPoint>{});
}

Ge Ge::multi_scalar_mul(const U256& base_scalar, std::span<const ScalarPoint> terms) {
  const Naf base_naf = wnaf(base_scalar, kBaseWindow);
  std::vector<Naf> nafs;
  std::vector<OddTable> tables;
  nafs.reserve(terms.size());
  tables.reserve(terms.size());
  int top = base_naf.len;
  for (const auto& t : terms) {
    nafs.push_back(wnaf(t.scalar, 5));
    if (nafs.back().len == 0) {  // a zero scalar adds nothing
      nafs.pop_back();
      continue;
    }
    tables.push_back(odd_multiples<8>(t.point));
    top = std::max(top, nafs.back().len);
  }

  // T is computed only where the next operation reads it: by every digit
  // addition but the last at a position (the one after it is a doubling),
  // and at position 0, whose last operation yields the result.
  Ge acc = Ge::identity();
  for (int i = top; i-- > 0;) {
    int digits = i < base_naf.len && base_naf.d[i] != 0 ? 1 : 0;
    for (const Naf& naf : nafs) digits += i < naf.len && naf.d[i] != 0 ? 1 : 0;

    acc = doubled(acc, digits > 0 || i == 0);
    if (i < base_naf.len && base_naf.d[i] != 0) {
      acc = add_digit(acc, base_odd_table(), base_naf.d[i], --digits > 0 || i == 0);
    }
    for (std::size_t j = 0; j < nafs.size(); ++j) {
      if (i < nafs[j].len && nafs[j].d[i] != 0) {
        acc = add_digit(acc, tables[j], nafs[j].d[i], --digits > 0 || i == 0);
      }
    }
  }
  return acc;
}

std::array<std::uint8_t, 32> Ge::compress() const {
  const Fe zinv = Z.invert();
  const Fe x = X * zinv;
  const Fe y = Y * zinv;
  auto out = y.to_bytes();
  if (x.is_negative()) out[31] |= 0x80;
  return out;
}

std::optional<Ge> Ge::decompress(codec::ByteView b) {
  if (b.size() != 32) return std::nullopt;
  const bool sign = (b[31] & 0x80) != 0;
  const Fe y = Fe::from_bytes(b);

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  const Fe y2 = y.square();
  const Fe u = y2 - Fe::one();
  const Fe v = fe_const::d() * y2 + Fe::one();
  Fe x;
  if (!fe_sqrt_ratio(u, v, x)) return std::nullopt;
  if (x.is_zero() && sign) return std::nullopt;  // -0 is not a valid encoding
  if (x.is_negative() != sign) x = x.negate();

  Ge p;
  p.X = x;
  p.Y = y;
  p.Z = Fe::one();
  p.T = x * y;
  return p;
}

}  // namespace setchain::crypto
