#include "ledger/ledger_node.hpp"

namespace setchain::ledger {

TxIdx InstantLedger::append(sim::NodeId origin, Transaction tx) {
  (void)origin;
  const TxIdx idx = table_.add(std::move(tx));
  pending_.push_back(idx);
  return idx;
}

void InstantLedger::on_new_block(sim::NodeId node, std::function<void(const Block&)> cb) {
  callbacks_.at(node) = std::move(cb);
}

bool InstantLedger::seal_block(sim::Time now) {
  if (pending_.empty()) return false;

  Block b;
  b.height = chain_.size() + 1;
  b.proposer = static_cast<sim::NodeId>(chain_.size() % n_);
  b.proposed_at = now;
  b.first_commit_at = now;

  std::uint64_t used = 0;
  std::size_t taken = 0;
  for (; taken < pending_.size(); ++taken) {
    const Transaction& tx = table_.get(pending_[taken]);
    if (!b.txs.empty() && used + tx.wire_size > max_block_bytes_) break;
    used += tx.wire_size;
    b.txs.push_back(&tx);
  }
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(taken));
  b.bytes = used;
  chain_.push_back(b);

  // Synchronous in-order delivery: Properties 9-11 hold by construction.
  const Block& sealed = chain_.back();
  for (std::uint32_t node = 0; node < n_; ++node) {
    if (callbacks_[node]) callbacks_[node](sealed);
  }
  return true;
}

void InstantLedger::seal_all(sim::Time now) {
  while (seal_block(now)) {
  }
}

}  // namespace setchain::ledger
