// Batch Ed25519 verification: the multi-scalar-mul machinery in ge25519,
// Ed25519::verify_batch (transcript randomizers + bisection culprit
// identification), and the Pki batch API. The contract under test
// throughout: verify_batch agrees with scalar Ed25519::verify entry by
// entry, for valid and invalid signatures alike.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha512.hpp"
#include "sim/rng.hpp"

namespace setchain::crypto {
namespace {

U256 random_u256(sim::Rng& rng) {
  U256 k;
  for (auto& w : k.w) w = rng.next_u64();
  return k;
}

// ---------------------------------------------------- ge25519 scalar-mul fast paths

TEST(Ge25519MultiScalar, VartimeMatchesPlainScalarMul) {
  sim::Rng rng(2024);
  const Ge p = Ge::base().scalar_mul(U256::from_u64(7));
  for (int i = 0; i < 20; ++i) {
    U256 k = random_u256(rng);
    k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;  // stay under 2^252-ish like real scalars
    EXPECT_EQ(p.scalar_mul_vartime(k).compress(), p.scalar_mul(k).compress()) << i;
  }
}

TEST(Ge25519MultiScalar, VartimeEdgeScalars) {
  const Ge p = Ge::base().scalar_mul(U256::from_u64(11));
  EXPECT_TRUE(p.scalar_mul_vartime(U256::zero()).is_identity());
  EXPECT_EQ(p.scalar_mul_vartime(U256::from_u64(1)).compress(), p.compress());
  for (std::uint64_t k : {2ULL, 15ULL, 16ULL, 17ULL, 255ULL, 65537ULL}) {
    EXPECT_EQ(p.scalar_mul_vartime(U256::from_u64(k)).compress(),
              p.scalar_mul(U256::from_u64(k)).compress())
        << k;
  }
}

TEST(Ge25519MultiScalar, BaseScalarMulMatchesPlain) {
  sim::Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    U256 k = random_u256(rng);
    k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    EXPECT_EQ(Ge::base_scalar_mul(k).compress(), Ge::base().scalar_mul(k).compress());
  }
}

TEST(Ge25519MultiScalar, MultiScalarMatchesSumOfScalarMuls) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    U256 base_k = random_u256(rng);
    base_k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    std::vector<Ge::ScalarPoint> terms;
    Ge expected = Ge::base().scalar_mul(base_k);
    for (int j = 0; j < 4; ++j) {
      U256 k = random_u256(rng);
      k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
      const Ge p = Ge::base().scalar_mul(U256::from_u64(rng.next_u64() | 1));
      terms.push_back(Ge::ScalarPoint{k, p});
      expected = expected.add(p.scalar_mul(k));
    }
    EXPECT_EQ(Ge::multi_scalar_mul(base_k, terms).compress(), expected.compress())
        << trial;
  }
}

TEST(Ge25519MultiScalar, EmptyInputIsIdentity) {
  EXPECT_TRUE(Ge::multi_scalar_mul(U256::zero(), {}).is_identity());
}

TEST(Ge25519MultiScalar, IsIdentityExcludesTwoTorsion) {
  EXPECT_TRUE(Ge::identity().is_identity());
  EXPECT_FALSE(Ge::base().is_identity());
  // (0, -1) has X == 0 like the identity but must not be mistaken for it.
  const Ge minus_one{Fe::zero(), Fe::one().negate(), Fe::one(), Fe::zero()};
  EXPECT_FALSE(minus_one.is_identity());
}

// ------------------------------------------------------------ batch fixtures

struct Signed {
  Ed25519::PublicKey pub;
  codec::Bytes msg;
  Ed25519::Signature sig;
};

std::vector<Signed> make_signed(std::size_t n, std::uint64_t seed_tag) {
  sim::Rng rng(seed_tag);
  std::vector<Signed> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Ed25519::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    out[i].pub = Ed25519::public_key(seed);
    out[i].msg.resize(1 + rng.next_u64() % 100);
    for (auto& b : out[i].msg) b = static_cast<std::uint8_t>(rng.next_u64());
    out[i].sig = Ed25519::sign(seed, out[i].pub, out[i].msg);
  }
  return out;
}

std::vector<Ed25519::BatchEntry> entries_of(const std::vector<Signed>& s) {
  std::vector<Ed25519::BatchEntry> out;
  out.reserve(s.size());
  for (const auto& x : s) out.push_back(Ed25519::BatchEntry{&x.pub, x.msg, &x.sig});
  return out;
}

// ------------------------------------------------------- Ed25519::verify_batch

TEST(Ed25519Batch, EmptyBatchIsVacuouslyValid) {
  const auto res = Ed25519::verify_batch({});
  EXPECT_TRUE(res.all_valid);
  EXPECT_TRUE(res.valid.empty());
}

TEST(Ed25519Batch, SingleEntryValidAndInvalid) {
  auto s = make_signed(1, 11);
  auto es = entries_of(s);
  auto res = Ed25519::verify_batch(es);
  EXPECT_TRUE(res.all_valid);
  ASSERT_EQ(res.valid.size(), 1u);
  EXPECT_TRUE(res.valid[0]);

  s[0].sig[5] ^= 0x01;
  res = Ed25519::verify_batch(es);
  EXPECT_FALSE(res.all_valid);
  EXPECT_FALSE(res.valid[0]);
}

TEST(Ed25519Batch, AllValidBatchPasses) {
  for (const std::size_t n : {2u, 8u, 33u}) {
    const auto s = make_signed(n, 100 + n);
    const auto res = Ed25519::verify_batch(entries_of(s));
    EXPECT_TRUE(res.all_valid) << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(res.valid[i]) << n << ":" << i;
  }
}

TEST(Ed25519Batch, ExactlyOneForgedCulpritIdentified) {
  // The bisection must pin the single bad signature at any position.
  for (const std::size_t bad : {0u, 3u, 7u, 12u, 15u}) {
    auto s = make_signed(16, 31337);
    s[bad].sig[17] ^= 0x80;  // forge exactly one
    const auto res = Ed25519::verify_batch(entries_of(s));
    EXPECT_FALSE(res.all_valid) << bad;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(res.valid[i], i != bad) << "bad=" << bad << " i=" << i;
    }
  }
}

TEST(Ed25519Batch, MultipleForgedAllIdentified) {
  auto s = make_signed(20, 555);
  for (const std::size_t bad : {1u, 2u, 9u, 19u}) s[bad].sig[40] ^= 0x22;
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const bool forged = i == 1 || i == 2 || i == 9 || i == 19;
    EXPECT_EQ(res.valid[i], !forged) << i;
  }
}

TEST(Ed25519Batch, WrongMessageRejected) {
  auto s = make_signed(8, 77);
  s[4].msg[0] ^= 0xFF;  // signature no longer covers this message
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(res.valid[i], i != 4) << i;
}

TEST(Ed25519Batch, NonCanonicalSRejected) {
  auto s = make_signed(6, 88);
  s[2].sig[63] |= 0xF0;  // S >= L: must fail the malleability guard
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(res.valid[i], i != 2) << i;
    // Cross-check against the scalar verifier.
    EXPECT_EQ(res.valid[i], Ed25519::verify(s[i].pub, s[i].msg, s[i].sig)) << i;
  }
}

TEST(Ed25519Batch, UndecompressablePointsRejected) {
  auto s = make_signed(5, 99);
  // y = 2 is not on the curve: break A of one entry and R of another.
  s[1].pub.fill(0);
  s[1].pub[0] = 2;
  s[3].sig[0] = 2;
  for (std::size_t i = 1; i < 32; ++i) s[3].sig[i] = 0;
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(res.valid[i], i != 1 && i != 3) << i;
  }
}

TEST(Ed25519Batch, LinearityForgeryWithPredictedRandomizersRejected) {
  // Regression for a soundness hole: an early transcript derived the
  // randomizers z_i from (R, A, message) only. An adversary could then
  // compute z1, z2 ahead of time and doctor two valid signatures as
  // S1' = S1 + z2, S2' = S2 - z1 (mod L): the combination z1*S1' + z2*S2'
  // is unchanged, so the combined check still passed while both signatures
  // were individually invalid. The transcript now absorbs the S halves,
  // which makes the z_i depend on the doctored values themselves; replay
  // the attack against the S-free derivation and require rejection.
  auto s = make_signed(2, 777);

  // Reconstruct the (R, A, M)-only transcript exactly as the vulnerable
  // derivation did.
  Sha512 transcript;
  transcript.update(codec::to_bytes("setchain.ed25519.batch.v1"));
  codec::Bytes count;
  codec::append_u64le(count, 2);
  transcript.update(count);
  for (const auto& x : s) {
    transcript.update(codec::ByteView(x.sig.data(), 32));  // R only, no S
    transcript.update(codec::ByteView(x.pub.data(), x.pub.size()));
    codec::Bytes len;
    codec::append_u64le(len, x.msg.size());
    transcript.update(len);
    transcript.update(x.msg);
  }
  const auto seed = transcript.finalize();
  U256 z[2];
  for (std::uint64_t j = 0; j < 2; ++j) {
    Sha512 zh;
    zh.update(codec::ByteView(seed.data(), seed.size()));
    codec::Bytes idx;
    codec::append_u64le(idx, j);
    zh.update(idx);
    const auto zd = zh.finalize();
    z[j] = U256::from_bytes_le(codec::ByteView(zd.data(), 16));
    if (z[j].is_zero()) z[j] = U256::from_u64(1);
  }

  // Doctor the S halves: S1 += z2, S2 -= z1 (mod L).
  U256 l;
  l.w[0] = 0x5812631A5CF5D3EDULL;
  l.w[1] = 0x14DEF9DEA2F79CD6ULL;
  l.w[3] = 0x1000000000000000ULL;
  const U256 one = U256::from_u64(1);
  U256 s0 = U256::from_bytes_le(codec::ByteView(s[0].sig.data() + 32, 32));
  U256 s1 = U256::from_bytes_le(codec::ByteView(s[1].sig.data() + 32, 32));
  U256 minus_z0 = l;
  minus_z0.sub_in_place(z[0]);
  const auto s0p = muladd_mod(one, s0, z[1], l).to_bytes_le<32>();
  const auto s1p = muladd_mod(one, s1, minus_z0, l).to_bytes_le<32>();
  std::copy(s0p.begin(), s0p.end(), s[0].sig.begin() + 32);
  std::copy(s1p.begin(), s1p.end(), s[1].sig.begin() + 32);

  // Both doctored signatures are individually invalid...
  EXPECT_FALSE(Ed25519::verify(s[0].pub, s[0].msg, s[0].sig));
  EXPECT_FALSE(Ed25519::verify(s[1].pub, s[1].msg, s[1].sig));
  // ...and the batch must agree, not be fooled by the preserved linear sum.
  const auto res = Ed25519::verify_batch(entries_of(s));
  EXPECT_FALSE(res.all_valid);
  EXPECT_FALSE(res.valid[0]);
  EXPECT_FALSE(res.valid[1]);
}

TEST(Ed25519Batch, DeterministicAcrossReplays) {
  auto s = make_signed(10, 123);
  s[6].sig[0] ^= 1;
  const auto es = entries_of(s);
  const auto a = Ed25519::verify_batch(es);
  const auto b = Ed25519::verify_batch(es);
  EXPECT_EQ(a.all_valid, b.all_valid);
  EXPECT_EQ(a.valid, b.valid);
}

TEST(Ed25519Batch, AgreesWithScalarVerifyOnRandomizedSuite) {
  // 1k random cases in batches of 50: ~6% of entries tampered in assorted
  // ways; batch verdicts must equal scalar verdicts everywhere.
  sim::Rng rng(4242);
  std::size_t checked = 0;
  for (int round = 0; round < 20; ++round) {
    auto s = make_signed(50, 9000 + static_cast<std::uint64_t>(round));
    for (auto& x : s) {
      if (!rng.chance(0.06)) continue;
      switch (rng.next_u64() % 4) {
        case 0: x.sig[rng.next_u64() % 64] ^= 0x01; break;              // bad sig byte
        case 1: x.msg[rng.next_u64() % x.msg.size()] ^= 0x01; break;    // bad message
        case 2: x.sig[63] |= 0xE0; break;                               // S >= L
        default: x.pub[rng.next_u64() % 32] ^= 0x01; break;             // bad key
      }
    }
    const auto res = Ed25519::verify_batch(entries_of(s));
    for (std::size_t i = 0; i < s.size(); ++i) {
      const bool scalar = Ed25519::verify(s[i].pub, s[i].msg, s[i].sig);
      ASSERT_EQ(res.valid[i], scalar) << "round " << round << " entry " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 1000u);
}

TEST(Ed25519Batch, SeededForgerySuiteMatchesScalarVerify) {
  // 200 batches of 1-64 entries signed by 1-4 keys (so the per-key folding
  // of the combined check sees one to many entries per key), each with 0-3
  // forgeries: a flipped S bit, a wrong message, R lifted from another
  // signature, or the messages of two entries of one key swapped.
  std::vector<Ed25519::Seed> seeds(4);
  std::vector<Ed25519::PublicKey> pubs(4);
  sim::Rng key_rng(2601);
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    for (auto& b : seeds[k]) b = static_cast<std::uint8_t>(key_rng.next_u64());
    pubs[k] = Ed25519::public_key(seeds[k]);
  }
  std::vector<std::size_t> key_of;
  sim::Rng rng(2602);
  std::size_t forged_total = 0;
  for (int batch = 0; batch < 200; ++batch) {
    const std::size_t n = 1 + rng.next_u64() % 64;
    const std::size_t keys = 1 + rng.next_u64() % 4;
    std::vector<Signed> s(n);
    key_of.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      key_of[i] = rng.next_u64() % keys;
      s[i].pub = pubs[key_of[i]];
      s[i].msg.resize(1 + rng.next_u64() % 48);
      for (auto& b : s[i].msg) b = static_cast<std::uint8_t>(rng.next_u64());
      s[i].sig = Ed25519::sign(seeds[key_of[i]], s[i].pub, s[i].msg);
    }
    const std::size_t forgeries = rng.next_u64() % 4;
    for (std::size_t f = 0; f < forgeries; ++f) {
      const std::size_t i = rng.next_u64() % n;
      const std::size_t other = rng.next_u64() % n;
      switch (rng.next_u64() % 4) {
        case 0:  // flipped S bit
          s[i].sig[32 + rng.next_u64() % 32] ^=
              static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
          break;
        case 1:  // wrong message
          s[i].msg[rng.next_u64() % s[i].msg.size()] ^= 0x04;
          break;
        case 2:  // R taken from another signature
          std::copy(s[other].sig.begin(), s[other].sig.begin() + 32, s[i].sig.begin());
          break;
        default:  // two entries of one key with their messages swapped
          for (std::size_t j = 0; j < n; ++j) {
            if (j != i && key_of[j] == key_of[i]) {
              std::swap(s[i].msg, s[j].msg);
              break;
            }
          }
          break;
      }
    }
    const auto res = Ed25519::verify_batch(entries_of(s));
    bool all = true;
    for (std::size_t i = 0; i < n; ++i) {
      const bool scalar = Ed25519::verify(s[i].pub, s[i].msg, s[i].sig);
      ASSERT_EQ(res.valid[i], scalar) << "batch " << batch << " entry " << i;
      all = all && scalar;
      if (!scalar) ++forged_total;
    }
    EXPECT_EQ(res.all_valid, all) << "batch " << batch;
  }
  EXPECT_GT(forged_total, 150u);  // the suite really exercises the bisection
}

// Entries built from explicit scalars so that keys and nonces can carry a
// small-order component: A' = a*B + T_A, R' = r*B + T_R, S = r + k*a with
// k = H(R' || A' || M). Honest signing never produces such entries.
struct Torsioned {
  U256 a;
  Ge t_key;
};

U256 order_l() {
  U256 l;
  l.w[0] = 0x5812631A5CF5D3EDULL;
  l.w[1] = 0x14DEF9DEA2F79CD6ULL;
  l.w[3] = 0x1000000000000000ULL;
  return l;
}

Signed sign_torsioned(const Torsioned& key, const Ge& t_nonce, const U256& r,
                      codec::Bytes msg) {
  const U256 l = order_l();
  Signed out;
  out.pub = Ge::base_scalar_mul(key.a).add(key.t_key).compress();
  out.msg = std::move(msg);
  const auto r_enc = Ge::base_scalar_mul(r).add(t_nonce).compress();
  Sha512 kh;
  kh.update(codec::ByteView(r_enc.data(), r_enc.size()));
  kh.update(codec::ByteView(out.pub.data(), out.pub.size()));
  kh.update(out.msg);
  const auto kd = kh.finalize();
  const U256 k = mod_512(U512::from_bytes_le(codec::ByteView(kd.data(), kd.size())), l);
  const auto s_enc = muladd_mod(k, key.a, r, l).to_bytes_le<32>();
  std::copy(r_enc.begin(), r_enc.end(), out.sig.begin());
  std::copy(s_enc.begin(), s_enc.end(), out.sig.begin() + 32);
  return out;
}

Ge point_from_hex(const char* h) {
  std::array<std::uint8_t, 32> b{};
  for (std::size_t i = 0; i < 32; ++i) {
    b[i] = static_cast<std::uint8_t>(std::stoi(std::string(h + 2 * i, 2), nullptr, 16));
  }
  const auto p = Ge::decompress(codec::ByteView(b.data(), b.size()));
  EXPECT_TRUE(p.has_value()) << h;
  return p.value_or(Ge::identity());
}

TEST(Ed25519Batch, SmallOrderComponentsKeepTheirVerdicts) {
  // Cofactorless checks: a scalar-valid verdict needs S*B - k*A' == R' as
  // points, so a small-order part of R' always fails there, and one of A'
  // passes only when k kills it. The random linear combination can mask a
  // small-order residue (z_i*T == 0 when 8 | z_i), so for these crafted
  // entries the batch verdict may differ from scalar `verify`; what it must
  // never do is move. The vector below was recorded before the per-key
  // folding and the cached-point tables went in: both compute the same
  // group element, so they must reproduce it bit for bit.
  const Ge t8 = point_from_hex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05");
  const Ge t2 = point_from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  ASSERT_TRUE(t8.scalar_mul(U256::from_u64(8)).is_identity());
  ASSERT_FALSE(t8.scalar_mul(U256::from_u64(4)).is_identity());
  ASSERT_TRUE(t2.dbl().is_identity());

  sim::Rng rng(2603);
  const auto scalar = [&rng] {
    U256 k = random_u256(rng);
    k.w[3] &= 0x0FFFFFFFFFFFFFFFULL;
    return k;
  };
  const Torsioned honest{scalar(), Ge::identity()};
  const Torsioned key8{scalar(), t8};
  const Torsioned key2{scalar(), t2};
  std::string batch_verdicts;
  std::string scalar_verdicts;
  for (int round = 0; round < 24; ++round) {
    std::vector<Signed> s;
    const auto msg = [&] {
      codec::Bytes m(8);
      for (auto& b : m) b = static_cast<std::uint8_t>(rng.next_u64());
      return m;
    };
    s.push_back(sign_torsioned(honest, Ge::identity(), scalar(), msg()));
    s.push_back(sign_torsioned(honest, t8, scalar(), msg()));  // R + T8
    s.push_back(sign_torsioned(key8, Ge::identity(), scalar(), msg()));
    s.push_back(sign_torsioned(key8, Ge::identity(), scalar(), msg()));
    s.push_back(sign_torsioned(key8, Ge::identity(), scalar(), msg()));
    s.push_back(sign_torsioned(key2, Ge::identity(), scalar(), msg()));
    s.push_back(sign_torsioned(key2, Ge::identity(), scalar(), msg()));
    s.push_back(sign_torsioned(honest, t2, scalar(), msg()));  // R + T2
    s.push_back(sign_torsioned(honest, Ge::identity(), scalar(), msg()));
    const auto res = Ed25519::verify_batch(entries_of(s));
    for (std::size_t i = 0; i < s.size(); ++i) {
      batch_verdicts += res.valid[i] ? '1' : '0';
      scalar_verdicts += Ed25519::verify(s[i].pub, s[i].msg, s[i].sig) ? '1' : '0';
    }
    batch_verdicts += ' ';
    scalar_verdicts += ' ';
  }
  EXPECT_EQ(batch_verdicts,
            "100000101 100011111 100001001 100000011 111101101 100000111 "
            "111100111 100001011 111111111 100011111 100011111 100000111 "
            "111101111 100011011 100100111 100000011 111111111 111111111 "
            "100000111 111111111 111111111 100000101 100001111 111101111 ") << "scalar: " << scalar_verdicts;
}

// ---------------------------------------------------------------- Pki batch

TEST(PkiBatch, MapsVerdictsAndRejectsUnknownSigners) {
  Pki pki(7);
  for (ProcessId id = 0; id < 4; ++id) pki.register_process(id);
  const auto m0 = codec::to_bytes("epoch 1 hash");
  const auto m1 = codec::to_bytes("epoch 2 hash");
  const auto m2 = codec::to_bytes("batch hash");
  const auto s0 = pki.sign(0, m0);
  const auto s1 = pki.sign(1, m1);
  auto s2 = pki.sign(2, m2);
  s2[3] ^= 0xFF;  // forged
  const auto s3 = pki.sign(3, m0);

  const std::vector<Pki::SignedMessage> items = {
      {0, m0, &s0},
      {1, m1, &s1},
      {2, m2, &s2},
      {99, m0, &s3},  // unknown process
      {3, m0, &s3},
  };
  const auto res = pki.verify_batch(items);
  EXPECT_FALSE(res.all_valid);
  ASSERT_EQ(res.valid.size(), 5u);
  EXPECT_TRUE(res.valid[0]);
  EXPECT_TRUE(res.valid[1]);
  EXPECT_FALSE(res.valid[2]);  // forged
  EXPECT_FALSE(res.valid[3]);  // unknown signer
  EXPECT_TRUE(res.valid[4]);
}

TEST(PkiBatch, AllValidAcrossProcesses) {
  Pki pki(21);
  std::vector<codec::Bytes> msgs;
  std::vector<Ed25519::Signature> sigs;
  for (ProcessId id = 0; id < 12; ++id) {
    pki.register_process(id);
    codec::Bytes m = codec::to_bytes("msg-");
    m.push_back(static_cast<std::uint8_t>(id));
    msgs.push_back(std::move(m));
    sigs.push_back(pki.sign(id, msgs.back()));
  }
  std::vector<Pki::SignedMessage> items;
  for (ProcessId id = 0; id < 12; ++id) items.push_back({id, msgs[id], &sigs[id]});
  const auto res = pki.verify_batch(items);
  EXPECT_TRUE(res.all_valid);
}

}  // namespace
}  // namespace setchain::crypto
