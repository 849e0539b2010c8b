#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "ledger/ledger_node.hpp"
#include "ledger/mempool.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace setchain::ledger {

/// Timing/size parameters of the simulated CometBFT deployment, calibrated
/// to the paper's measurements: ~0.8 blocks/s, 0.5 MB blocks by default.
struct ConsensusConfig {
  std::uint32_t n = 4;
  /// Minimum spacing between consecutive proposals. Together with
  /// timeout_commit this yields the paper's ~0.8 blocks/s on a LAN.
  sim::Time block_interval = sim::from_seconds(1.25);
  /// CometBFT-style pause between committing height h and proposing h+1.
  /// The next proposal fires at max(prev_proposal + block_interval,
  /// next_proposer_commit + timeout_commit): on a LAN the interval
  /// dominates; under injected WAN delay the commit path lengthens and the
  /// block rate drops below 0.8/s, exactly how network_delay degrades
  /// efficiency in Fig. 3c.
  sim::Time timeout_commit = sim::from_seconds(1.15);
  std::uint64_t max_block_bytes = 500'000;
  sim::Time timeout_propose = sim::from_seconds(3.0);
  /// Retransmission / catch-up cadence on lossy networks (fault injection):
  /// stuck heights re-disseminate their proposal and recorded votes, and
  /// waiting proposers trigger a mempool re-gossip, every this often (with
  /// capped exponential backoff). Real CometBFT gets the same effect from
  /// its gossip reactors and blocksync; the one-shot dissemination model
  /// needs it explicitly once messages can be lost. Only armed when the
  /// Network has a fault plan installed.
  sim::Time retry_interval = sim::from_seconds(2);
  MempoolConfig mempool;
};

/// Application hooks (ABCI-style) plus measurement taps.
struct LedgerHooks {
  /// CheckTx: stateless validity filter run by every node before a tx enters
  /// its mempool. Invalid txs are dropped (never gossiped onward).
  std::function<bool(const Transaction&)> check_tx;
  /// CPU time CheckTx consumes (applied to the node's BusyResource).
  std::function<sim::Time(const Transaction&)> check_tx_cost;
  /// A tx entered `node`'s mempool at `t` (drives the Fig.-4 mempool CDFs).
  std::function<void(sim::NodeId node, TxIdx idx, sim::Time t)> on_mempool_add;
  /// A block reached its first commit (canonical "in the ledger" time).
  std::function<void(const Block&, sim::Time)> on_block_committed;
};

/// Byzantine behaviours at the ledger layer (for fault-injection tests).
struct LedgerByzantineConfig {
  bool silent_proposer = false;  ///< never proposes; triggers round skips
  std::uint32_t garbage_txs_per_block = 0;  ///< injected into own proposals
  std::function<Transaction()> make_garbage;
};

/// Discrete-event simulation of a CometBFT-style BFT ledger:
/// mempool + gossip, rotating proposer, propose -> prevote -> precommit ->
/// commit with quorum 2f'+1 (f' = floor((n-1)/3)), per-node commit times
/// driven by the network model, round skips on silent proposers, and
/// FinalizeBlock delivery per node (ABCI; the Setchain algorithms run
/// there, exactly like the paper's implementation).
///
/// Dissemination is modeled as direct origin-to-peers sends rather than
/// epidemic flooding; with full-mesh clusters of 4-10 nodes this has the
/// same per-link byte load as CometBFT's gossip while costing O(n) instead
/// of O(n^2) simulation events per transaction (DESIGN.md, substitutions).
class CometbftSim final : public IBlockLedger {
 public:
  CometbftSim(sim::Simulation& sim, sim::Network& net,
              std::vector<sim::BusyResource>& cpus, ConsensusConfig cfg,
              LedgerHooks hooks);

  // IBlockLedger
  TxIdx append(sim::NodeId origin, Transaction tx) override;
  void on_new_block(sim::NodeId node, std::function<void(const Block&)> cb) override;
  std::uint64_t height() const override { return chain_.size(); }

  /// Start the proposal schedule. Call once before running the simulation.
  void start();

  void set_byzantine(sim::NodeId node, LedgerByzantineConfig cfg);

  const Block& block_at(std::uint64_t height1based) const {
    return *chain_.at(height1based - 1);
  }
  const Mempool& mempool(sim::NodeId node) const { return mempools_[node]; }
  std::uint32_t quorum() const { return quorum_; }

  /// True once every inflight height has committed everywhere (drain check).
  bool idle() const;

  /// Crash recovery: re-run FinalizeBlock at `node` for the already-delivered
  /// heights [from_height, delivered], in order — the recovering server
  /// rebuilds its derived state from the ledger, which is exactly the
  /// persistence model the Setchain algorithms assume. A wiped restart
  /// replays from 1; a retained one from its last applied height + 1 (blocks
  /// that were delivered but still queued on the CPU when the process died).
  void replay_range(sim::NodeId node, std::uint64_t from_height);

 private:
  struct HeightState {
    std::shared_ptr<Block> block;
    std::vector<std::uint8_t> has_proposal;
    std::vector<std::uint8_t> prevotes;    ///< distinct prevotes seen, per node
    std::vector<std::uint8_t> precommits;  ///< distinct precommits seen, per node
    /// Sender-deduplicated vote receipt ([receiver * n + sender]): lossy-mode
    /// retransmissions must never double-count a vote toward the quorum.
    std::vector<std::uint8_t> prevote_from;
    std::vector<std::uint8_t> precommit_from;
    std::vector<std::uint8_t> sent_prevote;
    std::vector<std::uint8_t> sent_precommit;
    std::vector<std::uint8_t> committed;
    std::uint32_t commit_count = 0;
    std::uint32_t retry_attempt = 0;
    bool first_commit_done = false;
  };

  sim::NodeId proposer_for(std::uint64_t height, std::uint32_t round) const {
    return static_cast<sim::NodeId>((height + round) % cfg_.n);
  }

  void schedule_propose(std::uint64_t height, std::uint32_t round, sim::Time at);
  void try_propose(std::uint64_t height, std::uint32_t round);
  void deliver_proposal(sim::NodeId node, std::uint64_t height);
  void deliver_prevote(sim::NodeId from, sim::NodeId at, std::uint64_t height);
  void deliver_precommit(sim::NodeId from, sim::NodeId at, std::uint64_t height);
  void commit_at(sim::NodeId node, std::uint64_t height);
  void accept_into_mempool(sim::NodeId node, TxIdx idx);
  void gossip_tx(sim::NodeId origin, TxIdx idx);
  HeightState& height_state(std::uint64_t height);

  // Lossy-network recovery (no-ops on a perfect network).
  void schedule_retry(std::uint64_t height);
  void retry_height(std::uint64_t height);
  void schedule_regossip();
  void regossip_pending();

  sim::Simulation& sim_;
  sim::Network& net_;
  std::vector<sim::BusyResource>& cpus_;
  ConsensusConfig cfg_;
  LedgerHooks hooks_;
  std::uint32_t quorum_;

  TxTable table_;
  std::vector<Mempool> mempools_;
  std::vector<std::function<void(const Block&)>> app_cbs_;
  std::vector<LedgerByzantineConfig> byzantine_;
  std::vector<std::shared_ptr<Block>> chain_;
  std::map<std::uint64_t, std::shared_ptr<Block>> pending_chain_;
  std::map<std::uint64_t, HeightState> inflight_;

  std::uint64_t next_height_ = 1;
  std::uint64_t last_scheduled_height_ = 0;
  std::uint32_t current_round_ = 0;
  bool waiting_for_txs_ = false;
  bool regossip_scheduled_ = false;
  std::uint32_t regossip_attempt_ = 0;  ///< backoff step, reset per episode
  sim::Time earliest_propose_ = 0;
  bool started_ = false;

  /// Txs already placed in a proposed block; excluded from later reaps so no
  /// transaction is ever included twice (ledger-level uniqueness).
  std::vector<bool> proposed_;
  /// Per-node in-order FinalizeBlock delivery (Property 10): blocks that
  /// commit at a node ahead of a predecessor are buffered here.
  std::vector<std::uint64_t> next_deliver_;
  std::vector<std::map<std::uint64_t, std::shared_ptr<const Block>>> deliver_buffer_;
};

}  // namespace setchain::ledger
