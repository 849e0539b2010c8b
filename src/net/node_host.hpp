#pragma once

#include <atomic>
#include <memory>

#include "core/compresschain.hpp"
#include "core/hashchain.hpp"
#include "core/vanilla.hpp"
#include "crypto/pki.hpp"
#include "net/consensus_ledger.hpp"
#include "net/transport.hpp"
#include "runner/scenario.hpp"
#include "sim/simulation.hpp"
#include "storage/storage.hpp"

namespace setchain::net {

struct NodeHostConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t id = 0;
  runner::Algorithm algorithm = runner::Algorithm::kHashchain;
  /// PKI master seed — every daemon and client of one cluster shares it, so
  /// all processes derive identical keys (the paper's PKI assumption; a
  /// production deployment would distribute real keys instead).
  std::uint64_t seed = 42;
  /// Client process ids n .. n+client_slots-1 are pre-registered in the PKI
  /// so their element signatures verify.
  std::uint32_t client_slots = 64;

  std::uint32_t collector_limit = 8;
  sim::Time collector_timeout = sim::from_millis(200);
  sim::Time block_interval = sim::from_millis(150);
  sim::Time sync_interval = sim::from_millis(400);

  /// Not read here; commitbench/commit_bench.cpp is its only writer.
  runner::LedgerMode ledger_mode = runner::LedgerMode::kConsensus;
  sim::Time timeout_propose = sim::from_millis(3000);  ///< consensus round timeout
  /// Retransmit base: own submissions and consensus state.
  sim::Time retry_interval = sim::from_millis(400);

  /// Epoch-snapshot compaction floor: a snapshot is cut once the node's
  /// epoch has advanced this far past the last snapshot AND the WAL
  /// appended since then is at least that snapshot's file size (and applied
  /// height == ledger height, so the materialized state is
  /// block-consistent); it streams the state into a snapshot and prunes
  /// covered WAL segments. 0 disables compaction (the WAL grows without
  /// bound — fine for tests and short runs). Only meaningful when a Storage
  /// is attached.
  std::uint64_t snapshot_epochs = 0;
  // A node's own ledger is always honest: the Byzantine tests and
  // `setchain_node --byz-consensus` wrap its transport in a
  // ByzantineTransport (net/byzantine_transport.hpp).
};

/// One live Setchain node: a full-fidelity SetchainServer (vanilla /
/// compresschain / hashchain), the consensus ledger, the
/// Hashchain batch exchange, and the client RPC service — everything behind
/// one ITransport. Single-threaded: frames arrive through on_frame (wired
/// to the transport handler) and timers fire through the simulation used as
/// a timer queue; with a TcpTransport, run_realtime() pumps both against
/// the wall clock, with a LoopbackHub the shared simulation drives it.
///
/// The identical NodeHost serves both backends, so the loopback conformance
/// suite exercises byte-for-byte the stack a TCP daemon runs.
class NodeHost final : public core::IBatchExchange {
 public:
  /// `storage` (optional) makes the node durable: committed blocks and
  /// received batches are WAL-logged, epoch snapshots compact the log, and
  /// recover() resumes from disk. The Storage outlives the host; nullptr
  /// runs the node fully in-memory (the pre-durability behavior).
  NodeHost(NodeHostConfig cfg, sim::Simulation& sim, ITransport& transport,
           storage::Storage* storage = nullptr);

  /// Restore state from the attached Storage: load the newest valid
  /// snapshot into the ledger + server, restore the WAL gap's batch
  /// records, replay its block records in order through the normal
  /// block-apply path, then install the durability hooks so NEW commits get
  /// logged (replayed ones are not re-logged). Call once, BEFORE start(); a
  /// fresh data directory recovers to height 0 and just installs the
  /// hooks. Returns false (with a diagnostic in `error`) when the on-disk
  /// state is unusable — config mismatch or malformed snapshot body; torn
  /// WAL tails are repaired, not errors. Without a Storage this is a no-op
  /// returning true.
  bool recover(std::string* error = nullptr);

  /// Wire the transport handler and arm the ledger timers. Call once,
  /// after recover() when a Storage is attached.
  void start();

  /// Inbound frame dispatch (the transport handler; exposed for tests).
  void on_frame(EndpointId from, wire::Frame&& frame);

  /// Real-time pump for socket-backed hosts: advances the timer queue along
  /// the wall clock and polls the transport, until `stop` is set.
  void run_realtime(std::atomic<bool>& stop);

  // core::IBatchExchange (Hashchain fetch traffic -> wire frames).
  void send_request(crypto::ProcessId requester, crypto::ProcessId holder,
                    const core::EpochHash& h, std::uint64_t wire_bytes) override;
  void send_response(crypto::ProcessId responder, crypto::ProcessId requester,
                     const core::EpochHash& h, core::BatchPtr batch,
                     const codec::Bytes* serialized) override;

  core::SetchainServer& server() { return *server_; }
  const core::SetchainServer& server() const { return *server_; }
  ConsensusLedger& ledger() { return ledger_; }
  const ConsensusLedger& ledger() const { return ledger_; }
  crypto::Pki& pki() { return pki_; }
  const core::SetchainParams& params() const { return params_; }
  const NodeHostConfig& config() const { return cfg_; }
  std::uint64_t cluster() const { return cluster_; }

  std::uint64_t rpcs_served() const { return rpcs_served_; }
  std::uint64_t bad_frames() const { return bad_frames_; }

  /// Stream the current ledger + server state into a snapshot at the
  /// ledger height, whatever the cut rule says (storage_tick calls it when
  /// the rule holds). Requires an attached Storage.
  void write_snapshot_now();

  /// Recovery counters from the attached Storage (nullptr when in-memory).
  const storage::RecoveryStats* recovery() const {
    return storage_ != nullptr ? &storage_->recovery() : nullptr;
  }
  storage::Storage* storage() { return storage_; }

  static std::uint64_t cluster_id_of(const NodeHostConfig& cfg) {
    return wire::cluster_id(cfg.seed, cfg.n, cfg.f,
                            static_cast<std::uint8_t>(cfg.algorithm));
  }

 private:
  void handle_add(EndpointId from, const wire::AddRequest& m);
  void handle_snapshot(EndpointId from, const wire::SnapshotRequest& m);
  void handle_proofs(EndpointId from, const wire::ProofsRequest& m);
  void handle_epoch(EndpointId from, const wire::EpochRequest& m);

  /// Point the ledger commit hook and the Hashchain batch store at the WAL.
  /// Installed at the END of recovery so replayed records are not re-logged.
  void install_durability_hooks();
  /// Periodic check of the snapshot cut rule (rides sync_interval).
  void storage_tick();

  NodeHostConfig cfg_;
  sim::Simulation& sim_;
  ITransport& transport_;
  storage::Storage* storage_;  ///< nullptr = in-memory node
  std::uint64_t cluster_;

  crypto::Pki pki_;
  core::SetchainParams params_;
  ConsensusLedger ledger_;
  std::unique_ptr<core::SetchainServer> server_;
  core::HashchainServer* hashchain_ = nullptr;  ///< set when algorithm is Hashchain

  std::uint64_t rpcs_served_ = 0;
  std::uint64_t bad_frames_ = 0;
  std::uint64_t last_snapshot_epoch_ = 0;
  bool hooks_installed_ = false;
};

}  // namespace setchain::net
