#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "core/proofs.hpp"
#include "crypto/pki.hpp"
#include "net/remote_node.hpp"

namespace commitbench {

using namespace setchain;

/// The benchmark's cluster: n servers tolerating f Byzantine ones.
inline constexpr std::uint32_t kN = 4;
inline constexpr std::uint32_t kF = 1;

/// The paper's light client talking to ONE server: it polls epoch() and
/// proofs_for_epoch(k) at a fixed cadence and stamps each epoch k twice —
/// `visible` when the node first reports it, `committed` when f+1 proofs
/// from distinct servers carry valid signatures over one epoch hash.
///
/// Epochs are checked for commitment in ascending order and a poll cycle
/// stops at the first uncommitted one, so each cycle costs one epoch() RPC
/// plus (newly committed epochs + 1) proofs RPCs however long the history.
class LightClient {
 public:
  static constexpr std::int64_t kPollNs = 5'000'000;     ///< cycle cadence
  static constexpr std::int64_t kQuietNs = 300'000'000;  ///< drain: epoch unchanged this long

  struct Epoch {
    std::int64_t visible_ns = -1;
    std::int64_t committed_ns = -1;
    core::EpochHash hash{};
    std::vector<core::EpochProof> proofs;  ///< the f+1 accepted proofs
  };

  /// `node` is used only from the thread that calls run(). Until drain(),
  /// the client also issues `snapshot_per_s` full snapshot() reads a second.
  LightClient(net::RemoteNode& node, const crypto::Pki& pki, double snapshot_per_s);

  /// Poll until stop is set, or — once drain() was called — until every
  /// visible epoch is committed, the epoch counter has been quiet for
  /// kQuietNs, and the node's history holds at least `target_ids` ids.
  void run(const std::atomic<bool>& stop);
  /// Switch to drain mode (callable from any thread).
  void drain(std::uint64_t target_ids) {
    drain_target_.store(target_ids);
    draining_.store(true);
  }
  bool drained() const { return drained_.load(); }

  const std::vector<Epoch>& epochs() const { return epochs_; }
  const std::vector<double>& epoch_rpc_us() const { return epoch_rpc_us_; }
  const std::vector<double>& proofs_rpc_us() const { return proofs_rpc_us_; }
  const std::vector<double>& snapshot_rpc_us() const { return snapshot_rpc_us_; }
  std::uint64_t proofs_polls() const { return proofs_polls_; }
  std::int64_t cpu_ns() const { return cpu_ns_; }

 private:
  /// f+1 distinct valid signers over one hash among `ps` for epoch k?
  bool quorum(std::uint64_t k, const std::vector<core::EpochProof>& ps, Epoch& out);
  bool history_reaches(std::uint64_t target_ids);

  net::RemoteNode& node_;
  const crypto::Pki& pki_;
  double snapshot_per_s_;
  std::vector<Epoch> epochs_;
  std::uint64_t next_uncommitted_ = 1;
  /// Signature verdicts for the epoch under check, keyed by signer.
  std::map<crypto::ProcessId, std::pair<core::EpochHash, bool>> verdicts_;

  std::vector<double> epoch_rpc_us_, proofs_rpc_us_, snapshot_rpc_us_;
  std::uint64_t proofs_polls_ = 0;
  std::int64_t cpu_ns_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> drain_target_{0};
  std::atomic<bool> drained_{false};
};

}  // namespace commitbench
