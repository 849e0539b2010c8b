#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "api/node.hpp"
#include "codec/byte_io.hpp"
#include "core/batch.hpp"
#include "core/collector.hpp"
#include "core/config.hpp"
#include "core/epoch_record.hpp"
#include "ledger/ledger_node.hpp"
#include "metrics/stage_recorder.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace setchain::core {

class IBatchExchange;  // core/batch_exchange.hpp — Hashchain transport seam

/// Wiring a server needs. Optional pieces may be null: `sim` is absent in
/// InstantLedger unit tests, `recorder` when metrics are off. `cpus` is the
/// simulated CPU the CostModel charges; only the DES (runner::Experiment)
/// has one — live nodes (net::NodeHost) charge no modeled cost. Hashchain
/// requires `batch_exchange` (its only way to reach a peer); the other
/// algorithms ignore it.
struct ServerContext {
  sim::Simulation* sim = nullptr;
  IBatchExchange* batch_exchange = nullptr;
  ledger::IBlockLedger* ledger = nullptr;
  crypto::Pki* pki = nullptr;
  std::vector<sim::BusyResource>* cpus = nullptr;
  metrics::StageRecorder* recorder = nullptr;
  const SetchainParams* params = nullptr;
  /// Associates a carrying ledger tx with the elements inside it (drives the
  /// per-element mempool/ledger stage metrics). May be null.
  std::function<void(ledger::TxIdx, const std::vector<ElementId>&)> register_tx_elements;

  /// Fired by this server when it consolidates an epoch, with the full
  /// element contents (in canonical order). The execution layer of
  /// Appendix G subscribes here to run transactions sequentially per epoch.
  /// May be null.
  std::function<void(const EpochRecord&, const std::vector<Element>&)> on_epoch;
};

/// Application-level Byzantine behaviours for fault-injection tests.
struct ServerByzantine {
  bool refuse_batch_service = false;  ///< Hashchain: never serve Request_batch
  bool corrupt_proofs = false;        ///< sign wrong epoch hashes
  bool fake_hash_batches = false;     ///< Hashchain: pair every real batch
                                      ///< announcement with a fake hash that
                                      ///< has no batch behind it
};

/// Common state and helpers of the three Setchain algorithms (§2):
/// the_set, history, epoch counter, and the epoch-proof set, plus the
/// bookkeeping that must be identical across algorithms (canonical epoch
/// hashing, proof validation/deferral, CPU accounting). Implements the
/// client-facing api::ISetchainNode surface, so everything client-shaped
/// depends on the interface, not on this class.
class SetchainServer : public api::ISetchainNode {
 public:
  SetchainServer(ServerContext ctx, crypto::ProcessId id);
  ~SetchainServer() override = default;

  SetchainServer(const SetchainServer&) = delete;
  SetchainServer& operator=(const SetchainServer&) = delete;

  /// S.add_v(e). Returns false when the element is invalid or already known
  /// (the pseudocode's assert, made total).
  bool add(Element e) override = 0;

  /// The ledger's new_block(B) notification (FinalizeBlock). With a
  /// simulated CPU (the DES) the block's modelled cost is charged and the
  /// block is applied at the completion time, so the ledger must keep it
  /// alive until then; without one (live nodes, InstantLedger harnesses) it
  /// is applied before this returns. A down server ignores it.
  void on_new_block(const ledger::Block& b);

  /// S.get_v(): (the_set, history, epoch, proofs) — views into live state.
  /// White-box accessor: always reflects the real state, even while down
  /// (invariant checkers inspect crashed servers through it).
  using Snapshot = api::NodeSnapshot;
  Snapshot get() const;
  /// Client-facing read: a down server serves nothing (null views), exactly
  /// like an unreachable process.
  Snapshot snapshot() const override { return down_ ? Snapshot{} : get(); }

  /// Epoch-proofs held locally for 1-based epoch `epoch_number`;
  /// bounds-checked (epoch 0 / not-yet-consolidated epochs yield an empty
  /// list). Sole owner of the proofs_[epoch-1] index convention.
  const std::vector<EpochProof>& proofs_for_epoch(
      std::uint64_t epoch_number) const override;

  crypto::ProcessId id() const { return id_; }
  crypto::ProcessId node_id() const override { return id_; }
  void set_byzantine(ServerByzantine b) { byz_ = b; }
  const ServerByzantine& byzantine() const { return byz_; }

  /// Crash-fault hooks (sim::FaultKind::kCrash drives these through the
  /// Experiment). While down the server refuses adds, serves empty client
  /// reads, ignores block deliveries, and drops its volatile collector
  /// contents. `wipe` additionally loses the consolidated state (the_set,
  /// history, proofs) — callers then rebuild it by replaying the ledger
  /// (CometbftSim::replay_delivered), the recovery the paper's persistence
  /// model implies. Idempotent: crashing a down server / restarting an up
  /// one is a no-op.
  void crash(bool wipe);
  void restart();
  bool is_down() const { return down_; }
  std::uint64_t crash_count() const { return crashes_; }
  /// Highest ledger height this server fully processed (its WAL position).
  /// Recovery re-delivers blocks from applied_height()+1 — a block that was
  /// delivered but still sitting in the CPU queue when the process died is
  /// covered by the replay, never applied twice (incarnation-guarded).
  std::uint64_t applied_height() const { return applied_height_; }

  std::uint64_t the_set_size() const { return the_set_count_; }
  /// Client-facing like snapshot(): an unreachable (down) server reports
  /// nothing. White-box inspection goes through get().epoch.
  std::uint64_t epoch() const override { return down_ ? 0 : epoch_; }

  /// f+1 valid proofs present locally for epoch i? (client-side commit
  /// criterion when talking to this single server).
  bool epoch_proven(std::uint64_t epoch_number) const;

  /// Durable-state serialization (storage snapshots). Writes the shared
  /// consolidated state — epoch counter, applied height, history records,
  /// proof store, parked ahead-proofs — then the subclass's
  /// serialize_derived(). Volatile collector contents are deliberately
  /// excluded: they die with the process exactly like they die in crash(),
  /// and clients re-add. Format: docs/STORAGE_FORMAT.md §server-state.
  void serialize_state(codec::Writer& w) const;
  /// Inverse of serialize_state onto a freshly constructed server. Restores
  /// derived indexes (the_set as the history union, history_members,
  /// proof_servers) and raises republish_boundary_ to the restored epoch so
  /// WAL-gap replay never re-publishes proofs a previous life already put
  /// on the ledger. False on malformed input (server state unspecified —
  /// callers must discard it).
  bool restore_state(codec::Reader& r);

 protected:
  /// Modelled CPU cost of processing block `b`; charged only on a server
  /// with a simulated CPU.
  virtual sim::Time block_cost(const ledger::Block& b) const = 0;
  /// Apply block `b` (the algorithm's new_block handler). applied_height()
  /// already names `b` when this runs.
  virtual void process_block(const ledger::Block& b) = 0;

  /// Subclass crash hooks: drop volatile per-algorithm state (collectors,
  /// fetch bookkeeping); `wipe` also clears ledger-derived stores. Called
  /// after the base class has handled the shared state.
  virtual void on_crash(bool wipe) { (void)wipe; }
  /// Called when the server comes back up (kick stalled work back to life).
  virtual void on_restart() {}

  /// Per-algorithm durable state, appended after the shared state by
  /// serialize_state. Vanilla/Compresschain have none (their only extra
  /// state is the volatile collector); Hashchain persists its batch store
  /// and per-hash progress flags.
  virtual void serialize_derived(codec::Writer& w) const { (void)w; }
  virtual bool restore_derived(codec::Reader& r) { (void)r; return true; }

  bool in_the_set(ElementId id) const;
  /// Insert into the_set; false if already present. Under lean_state only a
  /// counter is kept (workload ids are unique by construction).
  bool the_set_insert(ElementId id);
  bool in_history(ElementId id) const;

  /// Filter a batch's elements down to the valid, not-yet-epoch'd ones
  /// (dedup within the input too): the G of the pseudocode. Signature
  /// checks go through the Ed25519 batch path (one multi-scalar
  /// multiplication per call in full fidelity).
  std::vector<Element> extract_new_valid(const std::vector<Element>& es) const;

  /// Create epoch `epoch_+1` from G (callers guarantee determinism of G
  /// across correct servers). Adds to history, notifies the recorder, and
  /// returns this server's epoch-proof (possibly corrupted when Byzantine).
  EpochProof consolidate(const std::vector<Element>& g, sim::Time ledger_time);

  /// Validate an epoch-proof against local history and store it; proofs for
  /// epochs not yet consolidated locally are parked and retried after each
  /// consolidation. `ledger_time` feeds the commit metrics. `presig`
  /// carries a batch-verified signature verdict (kept with the proof if it
  /// is parked, so the signature is never re-verified).
  void absorb_proof(const EpochProof& p, sim::Time ledger_time,
                    SigCheck presig = SigCheck::kUnchecked);

  /// Absorb a block's worth of proofs, verifying all their signatures with
  /// one Ed25519 batch check first (full fidelity).
  void absorb_proofs(const std::vector<EpochProof>& ps, sim::Time ledger_time);

  /// Charge `cost` to this node's simulated CPU; returns completion time.
  /// Without a simulated CPU (live nodes, InstantLedger harnesses) nothing
  /// is charged and the work completes now().
  sim::Time cpu_acquire(sim::Time cost);
  bool has_simulated_cpu() const { return ctx_.cpus && !ctx_.cpus->empty(); }

  /// During a wiped-restart replay, epochs up to the pre-crash count are
  /// re-consolidated from the ledger — their proofs were already published
  /// by the previous life of this process and must not be appended again.
  bool proof_already_published(std::uint64_t epoch_number) const {
    return epoch_number <= republish_boundary_;
  }
  /// Monotonic process-lifetime counter, bumped by crash(). Deferred
  /// continuations (CPU-queued block processing) capture it and bail out
  /// when the incarnation changed underneath them — work scheduled by a
  /// previous life of the process dies with it.
  std::uint64_t incarnation() const { return incarnation_; }

  sim::Time now() const;
  const SetchainParams& params() const { return *ctx_.params; }
  Fidelity fidelity() const { return ctx_.params->fidelity; }

  ServerContext ctx_;
  crypto::ProcessId id_;
  ServerByzantine byz_;
  bool down_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t incarnation_ = 0;
  std::uint64_t applied_height_ = 0;
  std::uint64_t republish_boundary_ = 0;  ///< epochs published before a wipe

  std::unordered_set<ElementId> the_set_;
  std::uint64_t the_set_count_ = 0;
  std::unordered_set<ElementId> history_members_;
  std::vector<EpochRecord> history_;                ///< [i] = epoch i+1
  std::vector<std::vector<EpochProof>> proofs_;     ///< by epoch
  std::vector<std::unordered_set<crypto::ProcessId>> proof_servers_;
  std::uint64_t epoch_ = 0;

 private:
  void try_flush_pending_proofs(sim::Time ledger_time);

  /// Proofs received ahead of local consolidation of their epoch, with the
  /// batch-verified signature verdict they arrived with.
  struct PendingProof {
    EpochProof proof;
    SigCheck presig;
  };
  std::unordered_map<std::uint64_t, std::vector<PendingProof>> pending_proofs_;
  static constexpr std::uint64_t kMaxPendingEpochAhead = 100'000;
};

}  // namespace setchain::core
