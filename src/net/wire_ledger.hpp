#pragma once

#include <functional>

#include "codec/byte_io.hpp"
#include "ledger/ledger_node.hpp"
#include "net/transport.hpp"

namespace setchain::net {

/// Transport-facing face shared by the two live ledger modes —
/// ReplicatedLedger (fixed sequencer) and ConsensusLedger (wire-level
/// consensus fail-over): the paper's IBlockLedger toward the Setchain
/// algorithms, plus the frame entry points NodeHost routes inbound ledger
/// traffic to. Every on_* handler that can face a malformed or misrouted
/// payload returns false so the host counts it as a bad frame.
class IWireLedger : public ledger::IBlockLedger {
 public:
  /// Arm the mode's timers (seal/sync/consensus ticks). Call once, before
  /// the first frame is dispatched.
  virtual void start() = 0;

  // Frames both modes speak.
  virtual void on_tx_submit(EndpointId from, wire::TxSubmit&& m) = 0;
  /// False when the payload does not parse as a block.
  virtual bool on_block_frame(codec::ByteView payload) = 0;
  virtual void on_sync_request(EndpointId from, const wire::BlockSyncRequest& m) = 0;
  virtual void on_sync_response(const wire::BlockSyncResponse& m) = 0;

  // Consensus-mode frames. The sequencer ledger does not speak them: the
  // defaults reject, and NodeHost counts the frame as bad (a consensus
  // frame reaching a sequencer-mode daemon means a misconfigured peer —
  // normally impossible, the ledger mode is folded into the cluster id).
  virtual bool on_proposal(EndpointId from, codec::ByteView payload) {
    (void)from;
    (void)payload;
    return false;
  }
  virtual bool on_prevote(EndpointId from, const wire::VoteMsg& m) {
    (void)from;
    (void)m;
    return false;
  }
  virtual bool on_precommit(EndpointId from, const wire::VoteMsg& m) {
    (void)from;
    (void)m;
    return false;
  }
  virtual bool on_round_skip(EndpointId from, const wire::RoundSkipMsg& m) {
    (void)from;
    (void)m;
    return false;
  }

  /// Blocks this node sealed and sent out (sequencer blocks, or fresh
  /// consensus proposals).
  virtual std::uint64_t blocks_broadcast() const = 0;

  // ---- durable storage (src/storage, wired by NodeHost) ----

  /// Fired once per locally committed block with its height and the exact
  /// durable payload (kBlock layout for the sequencer; a CERTIFIED block —
  /// proposal plus its precommit quorum — for consensus mode, so replay can
  /// re-verify the certificate). The sequencer fires it BEFORE broadcasting
  /// a sealed block so
  /// a crash cannot publish a block the restarted process no longer has
  /// (which could fork the chain when it re-seals that height differently).
  /// NodeHost points this at the WAL — installed only after recovery replay
  /// so replayed blocks are not re-logged.
  using CommitHook = std::function<void(std::uint64_t height, codec::ByteView raw)>;
  virtual void set_commit_hook(CommitHook hook) = 0;

  /// Serialize the committed-ledger state into a snapshot body section:
  /// applied height, submission ordinal, committed tx count, and the
  /// committed content-key set that makes post-restart re-publication safe
  /// (docs/STORAGE_FORMAT.md). Chain payload bytes are NOT included — the
  /// WAL holds the tail, the snapshot compacts everything below it.
  virtual void serialize_state(codec::Writer& w) const = 0;
  /// Inverse, onto a freshly constructed not-yet-started ledger. After a
  /// successful restore the ledger reports height() == the snapshot height;
  /// heights up to it are compacted away (block sync cannot serve them — a
  /// fresh node that far behind needs a snapshot transfer, future work).
  /// False on malformed input.
  virtual bool restore_state(codec::Reader& r) = 0;
  /// Replay one WAL block record (wire payload) during recovery. Must be
  /// the next height (height()+1); the block flows through the normal
  /// commit path including the application callback, but never back out
  /// to the wire (NodeHost installs the commit hook only after replay, so
  /// nothing is re-logged). False on parse failure or height gap.
  virtual bool restore_block(codec::Bytes payload) = 0;
};

}  // namespace setchain::net
