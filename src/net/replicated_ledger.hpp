#pragma once

#include <map>

#include "net/committed_chain.hpp"
#include "net/wire_ledger.hpp"
#include "sim/simulation.hpp"

namespace setchain::net {

struct ReplicatedLedgerConfig {
  std::uint32_t n = 4;
  std::uint32_t self = 0;
  sim::Time block_interval = sim::from_millis(150);
  /// Rotating catch-up pull cadence (see CommittedChainConfig).
  sim::Time sync_interval = sim::from_millis(400);
  /// Base backoff for retransmitting own submissions to the sequencer.
  sim::Time retry_interval = sim::from_millis(400);
};

/// The paper's abstract block ledger (P9/P10/P11) over a real transport:
/// a sequencer-ordered replicated log of opaque transactions. Node
/// kSequencer orders; this mode has NO fail-over — a dead sequencer halts
/// epoch progress (deploy ConsensusLedger when the paper's f-tolerance
/// matters).
///
///  * append(tx): into the pool; a replica also sends it to the sequencer
///    as a kTxSubmit, retransmitted until the tx commits (the sequencer
///    dedups by content hash, so retries are safe).
///  * The sequencer reaps its pool into a block every block_interval,
///    commits it (WAL first) and broadcasts the kBlock frame; replicas
///    commit blocks in height order, buffering holes until the rotating
///    sync pull fills them.
///
/// Everything but ordering — pool, retransmission, tx table, stored
/// payloads, sync serving, snapshot state — is the shared CommittedChain.
class ReplicatedLedger final : public IWireLedger {
 public:
  static constexpr std::uint32_t kSequencer = 0;

  ReplicatedLedger(ReplicatedLedgerConfig cfg, sim::Simulation& timers,
                   ITransport& transport);

  void start() override;

  // IBlockLedger. `append` returns the local submission ordinal — NOT a
  // table index for frames still in flight to the sequencer; live
  // deployments leave the metrics taps (the only consumers) unwired.
  ledger::TxIdx append(sim::NodeId origin, ledger::Transaction tx) override;
  void on_new_block(sim::NodeId node, std::function<void(const ledger::Block&)> cb) override;
  std::uint64_t height() const override { return chain_.height(); }

  // Frame entry points (NodeHost routes inbound ledger frames here).
  void on_tx_submit(EndpointId from, wire::TxSubmit&& m) override;
  bool on_block_frame(codec::ByteView payload) override;
  void on_sync_request(EndpointId from, const wire::BlockSyncRequest& m) override;
  void on_sync_response(const wire::BlockSyncResponse& m) override;

  bool is_sequencer() const { return cfg_.self == kSequencer; }
  std::uint64_t blocks_broadcast() const override { return blocks_broadcast_; }

  // Durable storage (see IWireLedger).
  void set_commit_hook(CommitHook hook) override {
    chain_.set_commit_hook(std::move(hook));
  }
  void serialize_state(codec::Writer& w) const override;
  bool restore_state(codec::Reader& r) override;
  bool restore_block(codec::Bytes payload) override;

 private:
  void seal_tick();
  /// Buffer a parsed-valid kBlock payload and commit whatever is in order.
  void ingest(std::uint64_t height, codec::ByteView payload);

  ReplicatedLedgerConfig cfg_;
  sim::Simulation& timers_;
  ITransport& transport_;
  CommittedChain chain_;

  /// Replica: kBlock payloads above the next height, awaiting their hole.
  std::map<std::uint64_t, codec::Bytes> buffered_;
  std::uint64_t blocks_broadcast_ = 0;
  bool started_ = false;
};

}  // namespace setchain::net
