#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "codec/hex.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "sim/rng.hpp"

namespace setchain::crypto {
namespace {

std::string hex(codec::ByteView b) { return codec::to_hex(b); }

template <std::size_t N>
std::array<std::uint8_t, N> arr(const char* h) {
  const auto b = codec::from_hex(h);
  EXPECT_TRUE(b && b->size() == N);
  std::array<std::uint8_t, N> out{};
  std::copy(b->begin(), b->end(), out.begin());
  return out;
}

// ------------------------------------------------------------------- SHA-256

TEST(Sha256, NistVectors) {
  EXPECT_EQ(hex(Sha256::hash(codec::to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(Sha256::hash(codec::to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const codec::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto d = ctx.finalize();
  EXPECT_EQ(hex(codec::ByteView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto msg = codec::to_bytes("the quick brown fox jumps over the lazy dog etc");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(codec::ByteView(msg.data(), split));
    ctx.update(codec::ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(msg)) << split;
  }
}

// ------------------------------------------------------------------- SHA-512

TEST(Sha512, NistVectors) {
  EXPECT_EQ(hex(Sha512::hash(codec::to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(hex(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(
      hex(Sha512::hash(codec::to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  Sha512 ctx;
  const codec::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto d = ctx.finalize();
  EXPECT_EQ(hex(codec::ByteView(d.data(), d.size())),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, IncrementalAcrossBlockBoundary) {
  codec::Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  for (const std::size_t split : {0u, 1u, 63u, 64u, 127u, 128u, 129u, 255u, 300u}) {
    Sha512 ctx;
    ctx.update(codec::ByteView(msg.data(), split));
    ctx.update(codec::ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finalize(), Sha512::hash(msg)) << split;
  }
}

// ---------------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1) {
  const codec::Bytes key(20, 0x0b);
  const auto msg = codec::to_bytes("Hi There");
  const auto mac256 = hmac<Sha256, 64>(key, msg);
  EXPECT_EQ(hex(codec::ByteView(mac256.data(), mac256.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  const auto mac512 = hmac<Sha512, 128>(key, msg);
  EXPECT_EQ(hex(codec::ByteView(mac512.data(), mac512.size())),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(Hmac, Rfc4231Case2) {
  const auto key = codec::to_bytes("Jefe");
  const auto msg = codec::to_bytes("what do ya want for nothing?");
  const auto mac = hmac<Sha256, 64>(key, msg);
  EXPECT_EQ(hex(codec::ByteView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const codec::Bytes key(131, 0xaa);  // RFC 4231 case 6 key shape
  const auto msg = codec::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const auto mac = hmac<Sha256, 64>(key, msg);
  EXPECT_EQ(hex(codec::ByteView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// -------------------------------------------------------------------- bigint

TEST(BigInt, AddSubCarry) {
  U256 a = U256::from_u64(0xFFFFFFFFFFFFFFFFULL);
  const U256 one = U256::from_u64(1);
  EXPECT_EQ(a.add_in_place(one), 0u);
  EXPECT_EQ(a.w[0], 0u);
  EXPECT_EQ(a.w[1], 1u);
  EXPECT_EQ(a.sub_in_place(one), 0u);
  EXPECT_EQ(a.w[0], 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(a.w[1], 0u);
}

TEST(BigInt, SubBorrowsToZero) {
  U256 a = U256::from_u64(5);
  const U256 b = U256::from_u64(7);
  EXPECT_EQ(a.sub_in_place(b), 1u);  // borrow out: a < b
}

TEST(BigInt, MulMatchesSchoolbookSmall) {
  const U256 a = U256::from_u64(0xFFFFFFFFULL);
  const U512 p = mul_256(a, a);
  EXPECT_EQ(p.w[0], 0xFFFFFFFE00000001ULL);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(p.w[i], 0u);
}

TEST(BigInt, ModReducesCorrectly) {
  // x = q*m + r with small values checked exactly.
  const U256 m = U256::from_u64(97);
  U512 x;
  x.w[0] = 12345;
  const U256 r = mod_512(x, m);
  EXPECT_EQ(r.w[0], 12345 % 97);
}

TEST(BigInt, ModOfLargeValue) {
  U512 x;
  for (auto& w : x.w) w = 0xFFFFFFFFFFFFFFFFULL;
  const U256 m = U256::from_u64(1000003);
  const U256 r = mod_512(x, m);
  EXPECT_LT(r.w[0], 1000003u);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(r.w[i], 0u);
}

TEST(BigInt, MulAddModProperty) {
  sim::Rng rng(5);
  const U256 m = U256::from_u64(1'000'000'007ULL);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() % 1'000'000'007ULL;
    const std::uint64_t b = rng.next_u64() % 1'000'000'007ULL;
    const std::uint64_t c = rng.next_u64() % 1'000'000'007ULL;
    const U256 r = muladd_mod(U256::from_u64(a), U256::from_u64(b), U256::from_u64(c), m);
    const auto expect = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b + c) % 1'000'000'007ULL);
    EXPECT_EQ(r.w[0], expect);
  }
}

TEST(BigInt, BitLengthAndShift) {
  EXPECT_EQ(U256::zero().bit_length(), 0u);
  EXPECT_EQ(U256::from_u64(1).bit_length(), 1u);
  EXPECT_EQ(U256::from_u64(0x8000000000000000ULL).bit_length(), 64u);
  const U256 s = U256::from_u64(1).shl(130);
  EXPECT_EQ(s.bit_length(), 131u);
  EXPECT_TRUE(s.bit(130));
  EXPECT_FALSE(s.bit(129));
}

// ------------------------------------------------------------------- fe25519

TEST(Fe25519, ToFromBytesRoundtrip) {
  sim::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 32> b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    b[31] &= 0x7F;  // < 2^255
    const Fe f = Fe::from_bytes(codec::ByteView(b.data(), b.size()));
    // Values >= p re-encode reduced; values < p roundtrip exactly. Check
    // via double conversion (idempotence of the canonical form).
    const auto c1 = f.to_bytes();
    const Fe g = Fe::from_bytes(codec::ByteView(c1.data(), c1.size()));
    EXPECT_EQ(g.to_bytes(), c1);
  }
}

TEST(Fe25519, FieldAxioms) {
  sim::Rng rng(33);
  for (int i = 0; i < 100; ++i) {
    const Fe a = Fe::from_u64(rng.next_u64());
    const Fe b = Fe::from_u64(rng.next_u64());
    const Fe c = Fe::from_u64(rng.next_u64());
    EXPECT_TRUE((a + b).equals(b + a));
    EXPECT_TRUE((a * b).equals(b * a));
    EXPECT_TRUE(((a + b) * c).equals(a * c + b * c));
    EXPECT_TRUE((a - a).is_zero());
    EXPECT_TRUE((a * Fe::one()).equals(a));
  }
}

TEST(Fe25519, InverseIsInverse) {
  sim::Rng rng(37);
  for (int i = 0; i < 20; ++i) {
    const Fe a = Fe::from_u64(rng.next_u64() | 1);
    EXPECT_TRUE((a * a.invert()).equals(Fe::one()));
  }
}

TEST(Fe25519, SqrtMinusOneSquaresToMinusOne) {
  const Fe i = fe_const::sqrt_m1();
  EXPECT_TRUE(i.square().equals(Fe::one().negate()));
}

TEST(Fe25519, DConstantMatchesRfc8032) {
  // d = 370957059346694393431380835087545651895421138798432190163887855330
  //     85940283555
  const auto d_bytes = fe_const::d().to_bytes();
  EXPECT_EQ(hex(codec::ByteView(d_bytes.data(), 32)),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352");
}

// ------------------------------------- fe25519 kernels vs a slow reference

// The reference works on BigUInt residues mod p with generic multiply +
// long-division reduction and bit-by-bit square-and-multiply powers: slow,
// and sharing no code with the limb kernels or their addition chains.

U256 field_p() {
  U256 p;
  p.w[0] = 0xFFFFFFFFFFFFFFEDULL;
  p.w[1] = p.w[2] = ~0ULL;
  p.w[3] = 0x7FFFFFFFFFFFFFFFULL;
  return p;
}

/// The value a limb vector stands for, mod p, read from the raw limbs (so
/// unreduced limbs are checked without going through Fe::to_bytes).
U256 ref_value(const Fe& f) {
  U512 acc;
  for (std::size_t i = 5; i-- > 0;) {
    acc = acc.shl(51);
    acc.add_in_place(U512::from_u64(f.v[i]));
  }
  return mod_512(acc, field_p());
}

/// The canonical value of a kernel result.
U256 fe_value(const Fe& f) {
  const auto b = f.to_bytes();
  return U256::from_bytes_le(codec::ByteView(b.data(), b.size()));
}

U256 ref_mul(const U256& a, const U256& b) { return mod_512(mul_256(a, b), field_p()); }

U256 ref_pow(const U256& a, const U256& e) {
  U256 r = U256::from_u64(1);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    r = ref_mul(r, r);
    if (e.bit(i)) r = ref_mul(r, a);
  }
  return r;
}

U256 ref_neg(const U256& a) {
  if (a.is_zero()) return a;
  U256 r = field_p();
  r.sub_in_place(a);
  return r;
}

/// 2^k - c, for the exponents p-2 = 2^255-21, (p-5)/8 = 2^252-3 and
/// (p-1)/4 = 2^253-5.
U256 pow2_minus(std::size_t k, std::uint64_t c) {
  U256 r = U256::from_u64(1).shl(k);
  r.sub_in_place(U256::from_u64(c));
  return r;
}

/// RFC 8032 5.1.3 on the reference: (ok, x).
std::pair<bool, U256> ref_sqrt_ratio(const U256& u, const U256& v) {
  const U256 v3 = ref_mul(ref_mul(v, v), v);
  const U256 v7 = ref_mul(ref_mul(v3, v3), v);
  const U256 cand = ref_mul(ref_mul(u, v3), ref_pow(ref_mul(u, v7), pow2_minus(252, 3)));
  const U256 check = ref_mul(v, ref_mul(cand, cand));
  if (check == u) return {true, cand};
  if (check == ref_neg(u)) {
    return {true, ref_mul(cand, ref_pow(U256::from_u64(2), pow2_minus(253, 5)))};
  }
  return {false, U256::zero()};
}

Fe limbs(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d, std::uint64_t e) {
  Fe f;
  f.v = {a, b, c, d, e};
  return f;
}

/// Seeded random elements plus the edge values: 0, 1, p-1, and limb
/// vectors at the 2^51 carry boundary (p itself unreduced, all limbs 2^51,
/// all limbs 2^51 - 1, and a mix).
std::vector<Fe> kernel_inputs(std::uint64_t seed, int random_count) {
  constexpr std::uint64_t k51 = std::uint64_t{1} << 51;
  std::vector<Fe> out = {
      Fe::zero(),
      Fe::one(),
      Fe::one().negate(),
      limbs(k51 - 19, k51 - 1, k51 - 1, k51 - 1, k51 - 1),
      limbs(k51, k51, k51, k51, k51),
      limbs(k51 - 1, k51 - 1, k51 - 1, k51 - 1, k51 - 1),
      limbs(k51, 0, k51 - 1, k51, 1),
  };
  sim::Rng rng(seed);
  for (int i = 0; i < random_count; ++i) {
    std::array<std::uint8_t, 32> b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    out.push_back(Fe::from_bytes(codec::ByteView(b.data(), b.size())));
  }
  return out;
}

TEST(Fe25519Kernels, MultiplyAndSquareMatchReference) {
  const auto in = kernel_inputs(51, 64);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const U256 a = ref_value(in[i]);
    EXPECT_EQ(fe_value(in[i].square()), ref_mul(a, a)) << i;
    const Fe& other = in[(i * 7 + 3) % in.size()];
    EXPECT_EQ(fe_value(in[i] * other), ref_mul(a, ref_value(other))) << i;
  }
}

TEST(Fe25519Kernels, InvertMatchesReferencePower) {
  const U256 p_minus_2 = pow2_minus(255, 21);
  for (const Fe& f : kernel_inputs(52, 16)) {
    EXPECT_EQ(fe_value(f.invert()), ref_pow(ref_value(f), p_minus_2));
  }
}

TEST(Fe25519Kernels, SqrtRatioMatchesReference) {
  const auto in = kernel_inputs(53, 12);
  int roots = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (const std::size_t j : {i, (i + 1) % in.size(), (i * 5 + 2) % in.size()}) {
      const U256 u = ref_value(in[i]);
      const U256 v = ref_value(in[j]);
      const auto [want_ok, want_x] = ref_sqrt_ratio(u, v);
      Fe x;
      const bool ok = fe_sqrt_ratio(in[i], in[j], x);
      ASSERT_EQ(ok, want_ok) << i << "/" << j;
      if (!ok) continue;
      ++roots;
      EXPECT_EQ(fe_value(x), want_x) << i << "/" << j;
      EXPECT_EQ(ref_mul(v, ref_mul(want_x, want_x)), u) << i << "/" << j;
    }
  }
  EXPECT_GT(roots, 10);  // both verdicts are exercised
}

TEST(Fe25519Kernels, SqrtMinusOneIsTheDefinedPower) {
  EXPECT_EQ(fe_value(fe_const::sqrt_m1()), ref_pow(U256::from_u64(2), pow2_minus(253, 5)));
}

// ------------------------------------------------------------------- ge25519

TEST(Ge25519, BasePointEncoding) {
  const auto enc = Ge::base().compress();
  EXPECT_EQ(hex(codec::ByteView(enc.data(), 32)),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(Ge25519, IdentityLaws) {
  const Ge b = Ge::base();
  const Ge id = Ge::identity();
  EXPECT_EQ(b.add(id).compress(), b.compress());
  EXPECT_EQ(b.add(b.negate()).compress(), id.compress());
}

TEST(Ge25519, DoubleEqualsAdd) {
  const Ge b = Ge::base();
  EXPECT_EQ(b.dbl().compress(), b.add(b).compress());
}

TEST(Ge25519, ScalarMulDistributes) {
  const Ge b = Ge::base();
  const Ge lhs = b.scalar_mul(U256::from_u64(41)).add(b);
  const Ge rhs = b.scalar_mul(U256::from_u64(42));
  EXPECT_EQ(lhs.compress(), rhs.compress());
}

TEST(Ge25519, DecompressRejectsNonCurvePoints) {
  // y = 2 gives x^2 non-square on edwards25519.
  std::array<std::uint8_t, 32> enc{};
  enc[0] = 2;
  int rejected = 0;
  for (int sign = 0; sign < 2; ++sign) {
    enc[31] = static_cast<std::uint8_t>(sign << 7);
    if (!Ge::decompress(codec::ByteView(enc.data(), 32)).has_value()) ++rejected;
  }
  EXPECT_EQ(rejected, 2);
}

TEST(Ge25519, CompressDecompressRoundtrip) {
  for (std::uint64_t k : {1ULL, 2ULL, 3ULL, 99ULL, 123456789ULL}) {
    const Ge p = Ge::base().scalar_mul(U256::from_u64(k));
    const auto enc = p.compress();
    const auto q = Ge::decompress(codec::ByteView(enc.data(), enc.size()));
    ASSERT_TRUE(q.has_value()) << k;
    EXPECT_EQ(q->compress(), enc) << k;
  }
}

// ------------------------------------------------------------------- Ed25519

struct Rfc8032Vector {
  const char* seed;
  const char* pub;
  const char* msg;
  const char* sig;
};

class Ed25519Rfc : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519Rfc, SignAndVerify) {
  const auto& v = GetParam();
  const auto seed = arr<32>(v.seed);
  const auto pub = Ed25519::public_key(seed);
  EXPECT_EQ(hex(codec::ByteView(pub.data(), 32)), v.pub);
  const auto msg = *codec::from_hex(v.msg);
  const auto sig = Ed25519::sign(seed, pub, msg);
  EXPECT_EQ(hex(codec::ByteView(sig.data(), 64)), v.sig);
  EXPECT_TRUE(Ed25519::verify(pub, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Ed25519Rfc,
    ::testing::Values(
        Rfc8032Vector{
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
        // RFC 8032 "TEST SHA(abc)": message is the SHA-512 digest of "abc".
        Rfc8032Vector{
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
            "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"}));

TEST(Ed25519, RejectsTamperedMessage) {
  const auto seed = arr<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = Ed25519::public_key(seed);
  const auto msg = codec::to_bytes("payment of 100 to alice");
  const auto sig = Ed25519::sign(seed, pub, msg);
  auto tampered = msg;
  tampered[11] = '9';
  EXPECT_FALSE(Ed25519::verify(pub, tampered, sig));
}

TEST(Ed25519, RejectsTamperedSignatureAnyByte) {
  const auto seed = arr<32>(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto pub = Ed25519::public_key(seed);
  const auto msg = codec::to_bytes("x");
  const auto sig = Ed25519::sign(seed, pub, msg);
  for (std::size_t i = 0; i < sig.size(); i += 7) {
    auto bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Ed25519::verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  const auto seed1 = arr<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto seed2 = arr<32>(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto pub1 = Ed25519::public_key(seed1);
  const auto pub2 = Ed25519::public_key(seed2);
  const auto msg = codec::to_bytes("hello");
  EXPECT_FALSE(Ed25519::verify(pub2, msg, Ed25519::sign(seed1, pub1, msg)));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  const auto seed = arr<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = Ed25519::public_key(seed);
  const auto msg = codec::to_bytes("m");
  auto sig = Ed25519::sign(seed, pub, msg);
  // Force S >= L by setting its top bits.
  sig[63] |= 0xF0;
  EXPECT_FALSE(Ed25519::verify(pub, msg, sig));
}

TEST(Ed25519, SignVerifyPropertySweep) {
  sim::Rng rng(404);
  for (int i = 0; i < 20; ++i) {
    Ed25519::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto pub = Ed25519::public_key(seed);
    codec::Bytes msg(rng.next_u64() % 200);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto sig = Ed25519::sign(seed, pub, msg);
    EXPECT_TRUE(Ed25519::verify(pub, msg, sig));
  }
}

// ----------------------------------------------------------------------- PKI

TEST(Pki, DeterministicKeysPerSeed) {
  Pki a(42), b(42), c(43);
  EXPECT_EQ(a.register_process(7), b.register_process(7));
  EXPECT_NE(a.register_process(8), c.register_process(8));
}

TEST(Pki, SignVerifyAcrossProcesses) {
  Pki pki(1);
  pki.register_process(0);
  pki.register_process(1);
  const auto msg = codec::to_bytes("epoch 5 hash");
  const auto sig = pki.sign(0, msg);
  EXPECT_TRUE(pki.verify(0, msg, sig));
  EXPECT_FALSE(pki.verify(1, msg, sig));          // wrong signer
  EXPECT_FALSE(pki.verify(99, msg, sig));         // unknown process
}

TEST(Pki, SignatureBytesArePinned) {
  // 1000 signatures from 20 processes over messages of 0..96 bytes, folded
  // into one digest with the public keys: a change to key derivation,
  // signing or any encoding byte moves it.
  Pki pki(2509);
  Sha512 h;
  for (ProcessId id = 0; id < 20; ++id) {
    const auto& pub = pki.register_process(id);
    h.update(codec::ByteView(pub.data(), pub.size()));
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    codec::Bytes msg(i % 97);
    for (std::size_t j = 0; j < msg.size(); ++j) {
      msg[j] = static_cast<std::uint8_t>(i * 131 + j * 7);
    }
    const auto sig = pki.sign(i % 20, msg);
    h.update(codec::ByteView(sig.data(), sig.size()));
  }
  const auto digest = h.finalize();
  EXPECT_EQ(hex(codec::ByteView(digest.data(), digest.size())),
            "26e2da3f6aea467df9aabe8929b274dc328b746eb133baa28094060fb544969b"
            "a8aabd0588179d57da5d5dd8d4ba53b8ecb68b7faf1679773766ced16f0eae0d");
}

TEST(Pki, UnknownProcessThrowsOnSign) {
  Pki pki(1);
  EXPECT_THROW(pki.sign(5, codec::to_bytes("x")), std::out_of_range);
  EXPECT_THROW(pki.public_key(5), std::out_of_range);
}

}  // namespace
}  // namespace setchain::crypto
