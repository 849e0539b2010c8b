#pragma once

#include <functional>

#include "ledger/transaction.hpp"

namespace setchain::ledger {

/// The paper's abstract *block-based ledger* L (§2): `append(tx)` submits a
/// transaction, `new_block(B)` notifies every server of each finalized block,
/// with guarantees
///   P9  (Ledger-Add-Eventual-Notify)  appended valid txs end up in a block
///                                     notified to all correct servers,
///   P10 (Ledger-Consistent-Notification) same blocks, same order, and
///   P11 (Notification-Implies-Append) no spurious transactions.
///
/// Implementations: CometbftSim (ledger/consensus.hpp), the Tendermint-style
/// consensus simulation behind the experiments; InstantLedger (below), a
/// zero-latency deterministic ledger for algorithm unit tests; and the live
/// ledger of src/net (net::ConsensusLedger).
///
/// Block lifetime: a delivered Block, and every Transaction it points to, is
/// valid for the duration of the callback. The simulated ledgers keep each
/// delivered block alive for their own lifetime, because a DES server defers
/// its work on the block to the modelled completion time of its CPU. A live
/// ledger keeps only the block's payload bytes; its servers, which have no
/// simulated CPU, apply the block before the callback returns.
class IBlockLedger {
 public:
  virtual ~IBlockLedger() = default;

  /// Submit `tx` through server `origin`'s ledger node
  /// (CometBFT BroadcastTxAsync). Returns the transaction's table index.
  virtual TxIdx append(sim::NodeId origin, Transaction tx) = 0;

  /// Register server `node`'s FinalizeBlock / new_block(B) callback.
  virtual void on_new_block(sim::NodeId node, std::function<void(const Block&)> cb) = 0;

  virtual std::uint64_t height() const = 0;
};

/// Deterministic, zero-latency ledger for unit tests: appends accumulate in
/// a pending queue; `seal_block()` packs them (up to `max_block_bytes`) into
/// the next block and synchronously notifies every node in id order.
class InstantLedger final : public IBlockLedger {
 public:
  InstantLedger(std::uint32_t n, std::uint64_t max_block_bytes = 500'000)
      : n_(n), max_block_bytes_(max_block_bytes), callbacks_(n) {}

  TxIdx append(sim::NodeId origin, Transaction tx) override;
  void on_new_block(sim::NodeId node, std::function<void(const Block&)> cb) override;
  std::uint64_t height() const override { return chain_.size(); }
  /// Every appended tx, by the index append() returned.
  const TxTable& txs() const { return table_; }

  /// Pack pending txs into one block and deliver it. Returns false when
  /// nothing was pending (no empty blocks, like CometBFT's
  /// create_empty_blocks=false default).
  bool seal_block(sim::Time now = 0);

  /// Seal until the pending queue is empty.
  void seal_all(sim::Time now = 0);

  std::size_t pending() const { return pending_.size(); }
  const Block& block_at(std::uint64_t height1based) const {
    return chain_.at(height1based - 1);
  }

 private:
  std::uint32_t n_;
  std::uint64_t max_block_bytes_;
  TxTable table_;
  std::vector<TxIdx> pending_;
  std::deque<Block> chain_;  ///< deque: stable references for deferred apps
  std::vector<std::function<void(const Block&)>> callbacks_;
};

}  // namespace setchain::ledger
