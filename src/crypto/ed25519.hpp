#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "codec/bytes.hpp"

namespace setchain::crypto {

/// Ed25519 (RFC 8032) built on the from-scratch SHA-512 / curve25519 code in
/// this module. The paper signs epoch-proofs and hash-batches with ed25519;
/// wire sizes (32-byte keys, 64-byte signatures) therefore match exactly.
///
/// Validated against the RFC 8032 test vectors in tests/crypto.
struct Ed25519 {
  static constexpr std::size_t kSeedSize = 32;
  static constexpr std::size_t kPublicKeySize = 32;
  static constexpr std::size_t kSignatureSize = 64;

  using Seed = std::array<std::uint8_t, kSeedSize>;
  using PublicKey = std::array<std::uint8_t, kPublicKeySize>;
  using Signature = std::array<std::uint8_t, kSignatureSize>;

  /// Derive the public key for a 32-byte seed (RFC 8032 "secret key").
  static PublicKey public_key(const Seed& seed);

  static Signature sign(const Seed& seed, const PublicKey& pub, codec::ByteView message);

  /// Cofactorless verification: S*B == R + k*A with canonical-S check.
  static bool verify(const PublicKey& pub, codec::ByteView message, const Signature& sig);

  /// One signature of a batch. The referenced key/signature/message bytes
  /// must stay alive for the duration of the verify_batch call.
  struct BatchEntry {
    const PublicKey* pub = nullptr;
    codec::ByteView message;
    const Signature* sig = nullptr;
  };

  struct BatchResult {
    bool all_valid = false;
    std::vector<bool> valid;  ///< per entry, same order as the input span
  };

  /// Batch verification via a random linear combination: checks
  ///   (sum z_i*S_i)*B == sum z_i*R_i + sum z_i*k_i*A_i
  /// with ONE interleaved multi-scalar multiplication, amortizing the
  /// doubling chain across the whole batch; the k_i*A_i terms of entries
  /// signed by one key are folded into a single term. The per-entry randomizers z_i
  /// are derived deterministically from a SHA-512 transcript of all
  /// (R, S, A, message) tuples — the full signatures, so no part of the
  /// batch can be chosen after the randomizers; no wall-clock randomness,
  /// so replays of the same batch are bit-identical. When the combined check fails the batch
  /// is bisected (each half re-checked with fresh transcript randomizers)
  /// down to per-signature scalar verification, so the result identifies
  /// exactly which signatures are bad and agrees entry-by-entry with
  /// `verify`.
  static BatchResult verify_batch(std::span<const BatchEntry> entries);

  /// verify_batch fanned out over the process thread pool: the batch is cut
  /// into `shards` contiguous sub-batches, each verified independently (own
  /// transcript, own MSM, own bisection), and the per-entry verdicts merged
  /// back in order. Verdicts are EXACTLY those of verify() per entry —
  /// sharding changes the combination grouping, never the outcome — so any
  /// shard count (including 1, which is plain verify_batch) agrees with any
  /// other. verify_batch itself delegates here with a machine-derived shard
  /// count, so callers normally never pick one; the explicit overload exists
  /// for tests and tuning.
  static BatchResult verify_batch_sharded(std::span<const BatchEntry> entries,
                                          std::size_t shards);
};

}  // namespace setchain::crypto
