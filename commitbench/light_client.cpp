#include "light_client.hpp"

#include <thread>

#include "cluster.hpp"

namespace commitbench {

LightClient::LightClient(net::RemoteNode& node, const crypto::Pki& pki, double snapshot_per_s)
    : node_(node), pki_(pki), snapshot_per_s_(snapshot_per_s) {
  epoch_rpc_us_.reserve(1 << 16);
  proofs_rpc_us_.reserve(1 << 16);
}

bool LightClient::quorum(std::uint64_t k, const std::vector<core::EpochProof>& ps,
                         Epoch& out) {
  std::map<core::EpochHash, std::vector<const core::EpochProof*>> by_hash;
  for (const auto& p : ps) {
    if (p.epoch != k || p.server >= kN) continue;
    auto it = verdicts_.find(p.server);
    if (it == verdicts_.end() || it->second.first != p.epoch_hash) {
      const bool ok = core::valid_proof(p, p.epoch_hash, pki_, core::Fidelity::kFull);
      it = verdicts_.insert_or_assign(p.server, std::make_pair(p.epoch_hash, ok)).first;
    }
    if (!it->second.second) continue;
    auto& signers = by_hash[p.epoch_hash];
    bool dup = false;
    for (const auto* q : signers) dup = dup || q->server == p.server;
    if (!dup) signers.push_back(&p);
  }
  for (const auto& [hash, signers] : by_hash) {
    if (signers.size() < kF + 1) continue;
    out.hash = hash;
    out.proofs.clear();
    for (const auto* p : signers) out.proofs.push_back(*p);
    return true;
  }
  return false;
}

bool LightClient::history_reaches(std::uint64_t target_ids) {
  const api::NodeSnapshot snap = node_.snapshot();
  // Epochs may have formed since the last epoch() poll; those are neither
  // stamped visible nor committed yet, so the drain is not over.
  if (snap.history == nullptr || snap.history->size() > epochs_.size()) return false;
  std::uint64_t ids = 0;
  for (const auto& rec : *snap.history) ids += rec.ids.size();
  return ids >= target_ids;
}

void LightClient::run(const std::atomic<bool>& stop) {
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t snap_period =
      snapshot_per_s_ > 0 ? static_cast<std::int64_t>(1e9 / snapshot_per_s_) : 0;
  std::int64_t next_cycle = now_ns();
  std::int64_t next_snap = next_cycle + snap_period;
  std::int64_t last_change = next_cycle;
  while (!stop.load()) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t e = node_.epoch();
    const std::int64_t t1 = now_ns();
    epoch_rpc_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (e > epochs_.size()) {
      last_change = t1;
      while (epochs_.size() < e) {
        epochs_.emplace_back();
        epochs_.back().visible_ns = t1;
      }
    }
    while (next_uncommitted_ <= epochs_.size()) {
      const std::uint64_t k = next_uncommitted_;
      const std::int64_t a = now_ns();
      const auto& ps = node_.proofs_for_epoch(k);
      const std::int64_t b = now_ns();
      proofs_rpc_us_.push_back(static_cast<double>(b - a) / 1e3);
      ++proofs_polls_;
      Epoch& ep = epochs_[k - 1];
      if (!quorum(k, ps, ep)) break;
      ep.committed_ns = b;
      ++next_uncommitted_;
      verdicts_.clear();
    }
    const bool draining = draining_.load();
    if (snap_period > 0 && !draining && t1 >= next_snap) {
      const std::int64_t a = now_ns();
      const api::NodeSnapshot snap = node_.snapshot();
      const std::int64_t b = now_ns();
      if (snap.history != nullptr) {
        snapshot_rpc_us_.push_back(static_cast<double>(b - a) / 1e3);
      }
      next_snap += snap_period;
    }
    if (draining && next_uncommitted_ > epochs_.size() &&
        t1 - last_change >= kQuietNs) {
      if (history_reaches(drain_target_.load())) {
        drained_.store(true);
        break;
      }
      last_change = now_ns();  // not there yet: wait another quiet window
    }
    next_cycle += kPollNs;
    const std::int64_t now = now_ns();
    if (next_cycle > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next_cycle - now));
    } else {
      next_cycle = now;  // fell behind (a slow RPC): no catch-up burst
    }
  }
  cpu_ns_ = thread_cpu_ns() - cpu0;
}

}  // namespace commitbench
