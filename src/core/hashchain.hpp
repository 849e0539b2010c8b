#pragma once

#include <deque>

#include "core/batch_exchange.hpp"
#include "core/batch_store.hpp"
#include "core/setchain_base.hpp"

namespace setchain::core {

/// Algorithm Hashchain (§3) — the paper's primary contribution. Batches are
/// hashed; only the fixed-size hash-batch <h, sig, server> travels through
/// consensus. A hash consolidates into an epoch once hash-batches from f+1
/// distinct servers are on the ledger (so at least one correct server can
/// serve the batch contents). Unknown batches are fetched from a signer via
/// the Request_batch service, verified against their hash, re-signed and
/// re-announced. Peers are reached only through ServerContext::batch_exchange
/// (required).
///
/// Determinism note (DESIGN.md): signer counting uses only ledger content
/// (valid signatures), so the consolidation *position* is identical at every
/// correct server; a server lacking the batch contents blocks its
/// consolidation queue until the fetch succeeds (guaranteed: f+1 signers
/// include a correct one) instead of skipping, which keeps epoch numbering
/// consistent even under Byzantine batch-withholding.
class HashchainServer final : public SetchainServer {
 public:
  HashchainServer(ServerContext ctx, crypto::ProcessId id);

  bool add(Element e) override;

  Collector& collector() { return collector_; }
  const BatchStore& store() const { return store_; }

  /// Byzantine hook for tests: announce a hash-batch whose batch contents
  /// nobody stores. Correct servers must never consolidate it.
  void byz_announce_fake_hash();

  std::uint64_t hash_batches_appended() const { return hash_batches_appended_; }
  std::uint64_t fetches_started() const { return fetches_started_; }
  std::uint64_t fetches_failed() const { return fetches_failed_; }
  std::size_t consolidation_backlog() const { return consolidation_queue_.size(); }

  // ---- durable storage hooks (net::NodeHost recovery) ----
  /// Install the batch-store put observer (WAL batch records). Installed
  /// only after recovery so restored batches are not re-logged.
  void set_store_on_put(BatchStore::OnPut fn) { store_.set_on_put(std::move(fn)); }
  /// Replay one WAL batch record: parse `serialized`, check it hashes to
  /// `h`, and register it in the store. Pure store mutation — no co-sign,
  /// fetch, or consolidation side effects (kick_recovery() runs those once
  /// the whole replay is done). False when the bytes don't parse/hash.
  bool restore_batch(const EpochHash& h, codec::Bytes&& serialized);
  /// Resume after recovery: retry head-of-line consolidation (and through
  /// it, any fetch for a still-missing batch).
  void kick_recovery() { try_consolidate(); }

  // ---- batch-exchange protocol (invoked by the IBatchExchange) ----
  void serve_batch_request(crypto::ProcessId requester, const EpochHash& h);
  /// `batch` is what the responder sent — at kFull fidelity the parse of
  /// `serialized`, whose bytes are surrendered to this server and move
  /// straight into the store; calibrated responses carry no bytes.
  void on_batch_response(const EpochHash& h, BatchPtr batch, codec::Bytes&& serialized);

 protected:
  void on_crash(bool wipe) override;
  void on_restart() override;
  sim::Time block_cost(const ledger::Block& b) const override;
  void process_block(const ledger::Block& b) override;
  void serialize_derived(codec::Writer& w) const override;
  bool restore_derived(codec::Reader& r) override;

 private:
  struct HashState {
    std::unordered_set<crypto::ProcessId> signers;
    std::vector<crypto::ProcessId> fetch_candidates;  ///< signers, in order seen
    std::size_t next_candidate = 0;
    std::uint64_t attempt_seq = 0;
    std::uint64_t give_up_after = 0;  ///< speculative-fetch attempt budget
    bool fetching = false;
    bool own_appended = false;
    bool proofs_absorbed = false;
    bool elements_marked = false;   ///< recorder on_ledger done
    bool enqueued = false;          ///< in consolidation queue
    bool consolidated = false;
    sim::Time first_block_time = 0;
    sim::Time consolidate_block_time = 0;
  };

  /// Is this server in the (deterministic, hash-derived) signer committee
  /// for `h`? Always true when params().hashchain_committee == 0.
  bool in_committee(const EpochHash& h) const;

  void on_batch_ready(Batch&& batch);
  void handle_hash_batch(const HashBatchMsg& hb, const ledger::Block& b);
  void append_hash_batch(const EpochHash& h);
  void batch_now_available(const EpochHash& h);
  void start_fetch(const EpochHash& h);
  void fetch_attempt(const EpochHash& h);
  void on_fetch_timeout(const EpochHash& h, std::uint64_t attempt);
  void send_batch(crypto::ProcessId requester, const EpochHash& h);
  void try_consolidate();
  void consolidate_hash(const EpochHash& h, const Batch& batch);

  Collector collector_;
  BatchStore store_;
  std::unordered_map<EpochHash, HashState, EpochHashHasher> hash_state_;
  std::deque<EpochHash> consolidation_queue_;

  std::uint64_t hash_batches_appended_ = 0;
  std::uint64_t fetches_started_ = 0;
  std::uint64_t fetches_failed_ = 0;

  static constexpr std::uint32_t kRequestWireSize = 96;
  /// Fetch attempts granted to a hash nobody needs yet (not enqueued for
  /// consolidation); a vanished holder must not be polled to the horizon.
  static constexpr std::uint64_t kMaxSpeculativeFetchAttempts = 8;
};

}  // namespace setchain::core
