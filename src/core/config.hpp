#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace setchain::core {

/// Fidelity of the payload/crypto plumbing.
///
/// * kFull: elements carry real payload bytes, batches are really
///   serialized/compressed/hashed, and every signature is a real Ed25519
///   operation. Used by tests, the examples and live nodes (which charge
///   no CostModel: only the DES has a simulated CPU).
/// * kCalibrated: element payloads stay virtual (sizes + deterministic
///   seeds), compression uses the ratio measured from the real codec at
///   startup, hashes/signatures are deterministic placeholders, and crypto
///   CPU time is charged to the simulated cores via CostModel. Used by the
///   high-rate benchmark sweeps (up to 150k el/s), where materializing
///   every byte would dominate host time without changing any result the
///   paper reports. See DESIGN.md, substitution 5.
enum class Fidelity : std::uint8_t { kFull, kCalibrated };

/// Simulated CPU costs of the primitives, calibrated to the paper's testbed
/// (Xeon E-2186G, Go crypto). DES-only: these drive the BusyResource
/// occupancy of each node's simulated CPU (ServerContext::cpus); in
/// full-fidelity runs the real operations run too but the *simulated* time
/// is still taken from here (host speed must not leak into simulated
/// results). Live nodes (net::NodeHost) charge none of it.
struct CostModel {
  sim::Time validate_element = sim::from_micros(4);  ///< parse + syntactic checks
  sim::Time verify_signature = sim::from_micros(100);
  sim::Time sign = sim::from_micros(30);
  double hash_ns_per_byte = 2.0;
  double compress_ns_per_byte = 15.0;
  double decompress_ns_per_byte = 3.0;
  sim::Time check_tx_base = sim::from_micros(1);
  double check_tx_ns_per_byte = 0.5;

  /// Per-request overhead of the Hashchain batch-exchange service, charged
  /// at both the serving and the requesting server. Calibrated so the
  /// prototype behaviour the paper reports emerges: Hashchain saturates
  /// around 10k el/s with collector 100 (900 requests/s system-wide) and
  /// "the most likely cause of this limitation is the hash-reversal
  /// process" (§4.1) — the Light variant without the service runs ~6x
  /// faster. See DESIGN.md (ablations) and EXPERIMENTS.md.
  sim::Time request_batch_overhead = sim::from_millis(6);

  /// Batched Ed25519 verification (random linear combination + one
  /// multi-scalar multiplication): a fixed transcript/setup cost plus a
  /// per-signature cost well below a standalone verify, because the
  /// doubling chain is shared across the batch. Calibrated against
  /// bench/ed25519_batch_bench (batch-64 runs ~3x the per-signature
  /// throughput of scalar verify on the reference host).
  sim::Time verify_batch_base = sim::from_micros(40);
  sim::Time verify_batch_per_sig = sim::from_micros(35);

  sim::Time hash_cost(std::uint64_t bytes) const {
    return static_cast<sim::Time>(hash_ns_per_byte * static_cast<double>(bytes));
  }
  sim::Time compress_cost(std::uint64_t bytes) const {
    return static_cast<sim::Time>(compress_ns_per_byte * static_cast<double>(bytes));
  }
  sim::Time decompress_cost(std::uint64_t bytes) const {
    return static_cast<sim::Time>(decompress_ns_per_byte * static_cast<double>(bytes));
  }
  sim::Time check_tx_cost(std::uint64_t bytes) const {
    return check_tx_base +
           static_cast<sim::Time>(check_tx_ns_per_byte * static_cast<double>(bytes));
  }
  /// CPU time to verify `n` signatures through the batch path. A single
  /// signature takes the scalar route (the batch setup would only add
  /// overhead), and the batched estimate is clamped by n standalone
  /// verifies so the model stays monotone.
  sim::Time verify_batch_cost(std::uint64_t n) const {
    if (n == 0) return 0;
    if (n == 1) return verify_signature;
    const sim::Time batched =
        verify_batch_base + static_cast<sim::Time>(n) * verify_batch_per_sig;
    return std::min(batched, static_cast<sim::Time>(n) * verify_signature);
  }
};

/// Parameters shared by all three Setchain algorithms.
struct SetchainParams {
  std::uint32_t n = 4;  ///< servers
  std::uint32_t f = 1;  ///< Byzantine bound; f+1 proofs/signatures thresholds

  std::uint32_t collector_limit = 100;  ///< Table 1 collector size (entries)
  sim::Time collector_timeout = sim::from_seconds(1.0);

  Fidelity fidelity = Fidelity::kFull;

  /// Compresschain: decompress + validate received batches. Disabled for
  /// the "Compresschain Light" ablation in Fig. 2 (left).
  bool validate = true;
  /// Hashchain: run the hash-reversal service (fetch unknown batches and
  /// validate them). Disabled for "Hashchain Light" in Fig. 2 (left), which
  /// assumes all servers correct.
  bool hash_reversal = true;
  /// Skip per-element set bookkeeping (the highest-rate sweeps); implies
  /// trusting element uniqueness, which the workload generator guarantees.
  bool lean_state = false;

  /// Hashchain signer committee (§4.1 / future work: "having only a set of
  /// 2f+1 servers sign each batch-hash"). 0 = every server co-signs (the
  /// paper's evaluated algorithm); otherwise only the `hashchain_committee`
  /// servers deterministically drawn from the batch hash co-sign, cutting
  /// ledger traffic and reversal requests per batch from n to ~committee.
  /// Values below f+1 are clamped up to f+1 (consolidation needs f+1
  /// signatures); 2f+1 guarantees at least f+1 correct committee members.
  std::uint32_t hashchain_committee = 0;

  /// Measured szx ratio used to size compressed batches in calibrated runs;
  /// the experiment runner overwrites this with a fresh measurement.
  double calibrated_compress_ratio = 3.0;

  sim::Time request_batch_timeout = sim::from_millis(500);
  sim::Time request_batch_retry = sim::from_millis(300);

  CostModel costs;
};

}  // namespace setchain::core
