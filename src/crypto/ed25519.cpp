#include "crypto/ed25519.hpp"

#include <algorithm>
#include <map>

#include "crypto/bigint.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/sha512.hpp"
#include "util/thread_pool.hpp"

namespace setchain::crypto {

namespace {

/// Group order L = 2^252 + 27742317777372353535851937790883648493.
const U256& order_l() {
  static const U256 kL = [] {
    U256 l;
    l.w[0] = 0x5812631A5CF5D3EDULL;
    l.w[1] = 0x14DEF9DEA2F79CD6ULL;
    l.w[2] = 0;
    l.w[3] = 0x1000000000000000ULL;
    return l;
  }();
  return kL;
}

/// Reduction mod L specialized to its sparse shape: L = 2^252 + c with the
/// 125-bit constant c, so 2^252 == -c (mod L) and x = hi*2^252 + lo == lo -
/// c*hi. Each step shrinks x by ~127 bits; four steps bring any 512-bit
/// value under 2^252, with a sign flag tracking the alternating
/// subtraction. Replaces the generic binary long division (~256 shift/
/// compare rounds) on the batch-verification hot path.
U256 reduce_mod_l(U512 x) {
  static const U512 kC = [] {  // c = L - 2^252
    U512 c;
    c.w[0] = 0x5812631A5CF5D3EDULL;
    c.w[1] = 0x14DEF9DEA2F79CD6ULL;
    return c;
  }();

  bool neg = false;
  for (;;) {
    // hi = x >> 252 (< 2^260), lo = x mod 2^252.
    U512 hi;
    for (std::size_t i = 0; i < 5; ++i) {
      hi.w[i] = (x.w[i + 3] >> 60) | (i + 4 < 8 ? x.w[i + 4] << 4 : 0);
    }
    if (hi.is_zero()) break;
    U512 lo = x;
    lo.w[3] &= (std::uint64_t{1} << 60) - 1;
    for (std::size_t i = 4; i < 8; ++i) lo.w[i] = 0;

    // prod = c * hi: 2 x 5 words, < 2^385 — never overflows 512 bits.
    U512 prod;
    for (std::size_t i = 0; i < 2; ++i) {
      unsigned __int128 carry = 0;
      for (std::size_t j = 0; j < 6; ++j) {
        carry += static_cast<unsigned __int128>(kC.w[i]) * hi.w[j] + prod.w[i + j];
        prod.w[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
    }

    if (lo >= prod) {
      lo.sub_in_place(prod);
      x = lo;
    } else {
      prod.sub_in_place(lo);
      x = prod;
      neg = !neg;
    }
  }

  U256 r;
  for (std::size_t i = 0; i < 4; ++i) r.w[i] = x.w[i];  // x < 2^252 < L
  if (neg && !r.is_zero()) {
    U256 l = order_l();
    l.sub_in_place(r);
    r = l;
  }
  return r;
}

/// (a*b + c) mod L through the specialized reduction.
U256 mul_add_mod_l(const U256& a, const U256& b, const U256& c) {
  U512 prod = mul_256(a, b);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    carry += static_cast<unsigned __int128>(prod.w[i]) + (i < 4 ? c.w[i] : 0);
    prod.w[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return reduce_mod_l(prod);
}

U256 scalar_from_hash512(const Sha512::Digest& h) {
  return reduce_mod_l(U512::from_bytes_le(codec::ByteView(h.data(), h.size())));
}

struct ExpandedSecret {
  U256 a;  ///< clamped scalar
  std::array<std::uint8_t, 32> prefix;
};

ExpandedSecret expand(const Ed25519::Seed& seed) {
  auto h = Sha512::hash(codec::ByteView(seed.data(), seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;
  ExpandedSecret out;
  out.a = U256::from_bytes_le(codec::ByteView(h.data(), 32));
  std::copy(h.begin() + 32, h.end(), out.prefix.begin());
  return out;
}

}  // namespace

Ed25519::PublicKey Ed25519::public_key(const Seed& seed) {
  const auto secret = expand(seed);
  return Ge::base_scalar_mul(secret.a).compress();
}

Ed25519::Signature Ed25519::sign(const Seed& seed, const PublicKey& pub,
                                 codec::ByteView message) {
  const auto secret = expand(seed);

  Sha512 r_hash;
  r_hash.update(codec::ByteView(secret.prefix.data(), secret.prefix.size()));
  r_hash.update(message);
  const U256 r = scalar_from_hash512(r_hash.finalize());

  const auto r_enc = Ge::base_scalar_mul(r).compress();

  Sha512 k_hash;
  k_hash.update(codec::ByteView(r_enc.data(), r_enc.size()));
  k_hash.update(codec::ByteView(pub.data(), pub.size()));
  k_hash.update(message);
  const U256 k = scalar_from_hash512(k_hash.finalize());

  // S = (r + k*a) mod L
  const U256 s = mul_add_mod_l(k, secret.a, r);
  const auto s_enc = s.to_bytes_le<32>();

  Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.begin());
  std::copy(s_enc.begin(), s_enc.end(), sig.begin() + 32);
  return sig;
}

bool Ed25519::verify(const PublicKey& pub, codec::ByteView message, const Signature& sig) {
  const codec::ByteView r_bytes(sig.data(), 32);
  const U256 s = U256::from_bytes_le(codec::ByteView(sig.data() + 32, 32));
  if (!(s < order_l())) return false;  // non-canonical S (malleability guard)

  const auto a_pt = Ge::decompress(codec::ByteView(pub.data(), pub.size()));
  if (!a_pt) return false;
  // R is not decompressed: the recomputed point below is compared with R's
  // bytes, and a compressed point is always a canonical encoding of a curve
  // point, so that comparison rejects every R that is not one.

  Sha512 k_hash;
  k_hash.update(r_bytes);
  k_hash.update(codec::ByteView(pub.data(), pub.size()));
  k_hash.update(message);
  const U256 k = scalar_from_hash512(k_hash.finalize());

  // Check S*B == R + k*A  <=>  S*B + k*(-A) == R, as one interleaved
  // double-scalar multiplication.
  const Ge::ScalarPoint term{k, a_pt->negate()};
  const auto lhs = Ge::multi_scalar_mul(s, std::span(&term, 1)).compress();
  for (std::size_t i = 0; i < 32; ++i) {
    if (lhs[i] != r_bytes[i]) return false;
  }
  return true;
}

namespace {

/// Per-entry state shared by the combined check and its bisection: points
/// decompressed and scalars derived once per batch, reused by every
/// sub-check.
struct PreparedEntry {
  Ge neg_r;             ///< -R
  U256 s;               ///< signature scalar
  U256 k;               ///< H(R || A || M) mod L
  std::size_t key = 0;  ///< index of -A in PreparedBatch::neg_keys
  bool pre_ok = false;
};

struct PreparedBatch {
  std::vector<PreparedEntry> entries;
  std::vector<Ge> neg_keys;  ///< -A, once per distinct decompressible key
};

/// Index into PreparedBatch::neg_keys per public key (nullopt: not a curve
/// point). Setchain blocks carry many signatures from a bounded signer set
/// (n servers sign every vote, proof and hash batch; each client signs many
/// elements), so each distinct key pays its decompression once per batch,
/// and the combined check folds its terms into one.
using PubCache = std::map<Ed25519::PublicKey, std::optional<std::size_t>>;

PreparedEntry prepare_entry(const Ed25519::BatchEntry& e, PubCache& pub_cache,
                            std::vector<Ge>& neg_keys) {
  PreparedEntry out;
  const codec::ByteView r_bytes(e.sig->data(), 32);
  out.s = U256::from_bytes_le(codec::ByteView(e.sig->data() + 32, 32));
  if (!(out.s < order_l())) return out;  // non-canonical S

  auto [cached, inserted] = pub_cache.try_emplace(*e.pub);
  if (inserted) {
    const auto a_pt = Ge::decompress(codec::ByteView(e.pub->data(), e.pub->size()));
    if (a_pt) {
      cached->second = neg_keys.size();
      neg_keys.push_back(a_pt->negate());
    }
  }
  if (!cached->second) return out;  // key not a curve point
  const auto r_pt = Ge::decompress(r_bytes);
  if (!r_pt) return out;
  // Scalar `verify` compares the recomputed point against the R *bytes*, so
  // a non-canonically encoded R (y >= p) always fails there; reject it here
  // too, otherwise the batch path (which works on the decompressed point)
  // would disagree.
  const auto canonical_y = Fe::from_bytes(r_bytes).to_bytes();
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint8_t want = i == 31 ? (canonical_y[i] | (r_bytes[i] & 0x80)) : canonical_y[i];
    if (r_bytes[i] != want) return out;
  }

  Sha512 k_hash;
  k_hash.update(r_bytes);
  k_hash.update(codec::ByteView(e.pub->data(), e.pub->size()));
  k_hash.update(e.message);
  out.k = scalar_from_hash512(k_hash.finalize());
  out.key = *cached->second;
  out.neg_r = r_pt->negate();
  out.pre_ok = true;
  return out;
}

/// 8L, the order of the whole curve group (cofactor 8 times the prime L).
const U256& order_8l() {
  static const U256 k8L = order_l().shl(3);
  return k8L;
}

/// acc = (acc + x) mod 8L for acc, x < 8L. The sum can carry past 2^256;
/// subtracting 8L modulo 2^256 then still lands on the right value.
void add_mod_8l(U256& acc, const U256& x) {
  const bool carry = acc.add_in_place(x) != 0;
  if (carry || acc >= order_8l()) acc.sub_in_place(order_8l());
}

/// Combined random-linear-combination check over a subset of the batch:
///   (sum z_i*S_i)*B + sum z_i*(-R_i) + sum_A (sum_{i: A_i = A} z_i*k_i)*(-A)
///     == identity.
/// The -A terms of one key are folded into one: their scalars (each
/// z_i*k_i mod L) are summed mod 8L, and since 8L*P is the identity for
/// every curve point P, the folded term is exactly the sum of the separate
/// ones, even for a key with a small-order component (summing mod L would
/// not be). So the check sees the same group element, and a key's many
/// entries cost one scalar multiplication instead of one each.
/// The z_i are 128-bit scalars derived from a SHA-512 transcript of the
/// subset's full (R, S, A, message) tuples, keyed per entry by its index
/// within the subset — deterministic, so the same batch always produces the
/// same combination. The transcript MUST absorb the S halves: if the z_i
/// depended only on (R, A, M), an adversary could pick them first and then
/// doctor two valid signatures as S1+z2 / S2-z1, preserving sum z_i*S_i
/// while making both individually invalid.
bool combined_check(std::span<const Ed25519::BatchEntry> entries,
                    const PreparedBatch& prepared, const std::vector<std::size_t>& subset) {
  Sha512 transcript;
  transcript.update(codec::to_bytes("setchain.ed25519.batch.v1"));
  codec::Bytes count;
  codec::append_u64le(count, subset.size());
  transcript.update(count);
  for (const std::size_t i : subset) {
    const auto& e = entries[i];
    transcript.update(codec::ByteView(e.sig->data(), e.sig->size()));  // R and S
    transcript.update(codec::ByteView(e.pub->data(), e.pub->size()));
    codec::Bytes len;
    codec::append_u64le(len, e.message.size());
    transcript.update(len);
    transcript.update(e.message);
  }
  const auto seed = transcript.finalize();

  U256 base_scalar = U256::zero();
  std::vector<U256> key_scalars(prepared.neg_keys.size(), U256::zero());
  std::vector<Ge::ScalarPoint> terms;
  terms.reserve(subset.size() + key_scalars.size());
  for (std::size_t j = 0; j < subset.size(); ++j) {
    const PreparedEntry& p = prepared.entries[subset[j]];
    Sha512 zh;
    zh.update(codec::ByteView(seed.data(), seed.size()));
    codec::Bytes idx;
    codec::append_u64le(idx, j);
    zh.update(idx);
    const auto zd = zh.finalize();
    // 128-bit randomizers: standard for ed25519 batching (2^-128 soundness)
    // and half the NAF length of a full scalar for the R_i terms.
    U256 z = U256::from_bytes_le(codec::ByteView(zd.data(), 16));
    if (z.is_zero()) z = U256::from_u64(1);

    base_scalar = mul_add_mod_l(z, p.s, base_scalar);
    terms.push_back(Ge::ScalarPoint{z, p.neg_r});
    add_mod_8l(key_scalars[p.key], mul_add_mod_l(z, p.k, U256::zero()));
  }
  // Keys outside the subset keep a zero scalar, which the MSM skips.
  for (std::size_t a = 0; a < key_scalars.size(); ++a) {
    terms.push_back(Ge::ScalarPoint{key_scalars[a], prepared.neg_keys[a]});
  }
  return Ge::multi_scalar_mul(base_scalar, terms).is_identity();
}

/// Bisection fallback: a failing subset is split until the culprits are
/// pinned down by scalar verification, which keeps the result exactly equal
/// to per-signature `verify` even in the (negligible-probability) corner
/// cases a random combination could mask.
void bisect(std::span<const Ed25519::BatchEntry> entries, const PreparedBatch& prepared,
            std::vector<std::size_t> subset,
            std::vector<bool>& valid) {
  if (subset.empty()) return;
  if (subset.size() == 1) {
    const auto& e = entries[subset[0]];
    valid[subset[0]] = Ed25519::verify(*e.pub, e.message, *e.sig);
    return;
  }
  if (combined_check(entries, prepared, subset)) {
    for (const std::size_t i : subset) valid[i] = true;
    return;
  }
  const std::size_t mid = subset.size() / 2;
  bisect(entries, prepared,
         std::vector<std::size_t>(subset.begin(), subset.begin() + static_cast<std::ptrdiff_t>(mid)),
         valid);
  bisect(entries, prepared,
         std::vector<std::size_t>(subset.begin() + static_cast<std::ptrdiff_t>(mid), subset.end()),
         valid);
}

/// One shard's worth of batch verification (the pre-sharding verify_batch
/// body). `valid` is sized to the shard and all-false on entry.
void verify_shard(std::span<const Ed25519::BatchEntry> entries,
                  std::vector<bool>& valid, bool& all_valid) {
  if (entries.size() == 1) {
    valid[0] = Ed25519::verify(*entries[0].pub, entries[0].message, *entries[0].sig);
    all_valid = valid[0];
    return;
  }

  PreparedBatch prepared;
  prepared.entries.reserve(entries.size());
  std::vector<std::size_t> candidates;
  candidates.reserve(entries.size());
  PubCache pub_cache;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    prepared.entries.push_back(prepare_entry(entries[i], pub_cache, prepared.neg_keys));
    if (prepared.entries.back().pre_ok) candidates.push_back(i);
  }

  // One combined check when everything is fine; bisection (inside `bisect`)
  // takes over only on failure.
  bisect(entries, prepared, candidates, valid);
  all_valid = candidates.size() == entries.size();
  for (const std::size_t i : candidates) all_valid = all_valid && valid[i];
}

/// Entries below which a shard is not worth a transcript + MSM of its own:
/// the MSM's amortization flattens out around this batch size, so slicing
/// finer just repeats fixed costs.
constexpr std::size_t kMinShardEntries = 64;

}  // namespace

Ed25519::BatchResult Ed25519::verify_batch(std::span<const BatchEntry> entries) {
  std::size_t shards = 1;
  const std::size_t workers = util::ThreadPool::global().workers();
  if (workers > 0 && entries.size() >= 2 * kMinShardEntries) {
    shards = std::min(workers + 1, entries.size() / kMinShardEntries);
  }
  return verify_batch_sharded(entries, shards);
}

Ed25519::BatchResult Ed25519::verify_batch_sharded(std::span<const BatchEntry> entries,
                                                   std::size_t shards) {
  BatchResult res;
  res.valid.assign(entries.size(), false);
  if (entries.empty()) {
    res.all_valid = true;
    return res;
  }
  shards = std::max<std::size_t>(1, std::min(shards, entries.size()));

  if (shards == 1) {
    bool all = false;
    verify_shard(entries, res.valid, all);
    res.all_valid = all;
    return res;
  }

  // Contiguous split. Each shard writes a LOCAL verdict vector (vector<bool>
  // packs bits — concurrent writes to neighboring indices of a shared one
  // would race) merged in order after the parallel_for barrier.
  struct ShardOut {
    std::vector<bool> valid;
    bool all_valid = false;
  };
  std::vector<ShardOut> outs(shards);
  const std::size_t base = entries.size() / shards;
  const std::size_t extra = entries.size() % shards;
  const auto shard_begin = [&](std::size_t s) {
    return s * base + std::min(s, extra);
  };
  util::ThreadPool::global().parallel_for(shards, [&](std::size_t s) {
    const std::size_t begin = shard_begin(s);
    const std::size_t len = shard_begin(s + 1) - begin;
    ShardOut& o = outs[s];
    o.valid.assign(len, false);
    verify_shard(entries.subspan(begin, len), o.valid, o.all_valid);
  });

  res.all_valid = true;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = shard_begin(s);
    for (std::size_t i = 0; i < outs[s].valid.size(); ++i) {
      res.valid[begin + i] = outs[s].valid[i];
    }
    res.all_valid = res.all_valid && outs[s].all_valid;
  }
  return res;
}

}  // namespace setchain::crypto
