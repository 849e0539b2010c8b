#pragma once

#include <deque>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "codec/byte_io.hpp"
#include "crypto/sha256.hpp"
#include "ledger/ledger_node.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace setchain::net {

/// The paper's block size: the live ledger seals at most this many encoded
/// tx bytes (wire::tx_encoded_size) into one block. Well under half the
/// frame cap, so a block always fits one broadcast frame and rides alone in
/// a kBlockSyncResponse.
inline constexpr std::uint64_t kMaxBlockBytes = 500'000;
static_assert(kMaxBlockBytes <= wire::kMaxPayloadBytes / 2);

/// Content hash of one ledger transaction — SHA-256 over (kind byte ‖ data),
/// the live ledger's dedup key: the origin resends a pooled tx
/// until this key appears in a committed block, and receivers drop submits
/// whose key they already hold, so retries are always safe.
inline std::string tx_dedup_key(const ledger::Transaction& tx) {
  crypto::Sha256 h;
  const std::uint8_t kind = static_cast<std::uint8_t>(tx.kind);
  h.update(codec::ByteView(&kind, 1));
  h.update(tx.data);
  const auto d = h.finalize();
  return std::string(reinterpret_cast<const char*>(d.data()), d.size());
}

struct CommittedChainConfig {
  std::uint32_t n = 4;
  std::uint32_t self = 0;
  /// Catch-up cadence: ask the next peer in rotation for blocks above our
  /// height this often. Heals frames lost on dropped connections and lets
  /// late-starting nodes join mid-stream.
  sim::Time sync_interval = sim::from_millis(400);
  /// Base backoff for retransmitting own submissions (doubles per attempt,
  /// capped at 8x) until they appear in a committed block.
  sim::Time retry_interval = sim::from_millis(400);
};

/// Everything of the live block ledger but its ordering. ConsensusLedger's
/// rounds decide WHAT commits and when a block is sealed; this class holds
/// the txs waiting for a block, lands committed blocks and shares them
/// afterwards:
///
///  * Pool: pending txs in arrival order, deduplicated by content key
///    against each other and the committed history. submit() pools an own
///    tx, sends it to every peer (any of them may propose the block it
///    commits in) and retransmits it with capped backoff until its key
///    commits; accept() pools a peer's kTxSubmit. A tx whose
///    encoded size exceeds kMaxBlockBytes is refused: it could never fit a
///    block. reap() packs the next block from the pool and leaves it there.
///  * commit(): one already-validated block at height()+1, given as
///    (height, proposer, txs, exact payload bytes). Duplicate content keys
///    are skipped and the rest leave the pool; the payload is stored, then
///    the commit hook (WAL) fires and the application callback gets a block
///    over the handed-in txs, valid for that call only. Only the payload
///    bytes and the content keys outlive commit().
///  * Sync: every node pulls blocks above its height from a rotating peer
///    and serves pulls from the stored payload bytes, verbatim.
///  * Snapshot state prefix (docs/STORAGE_FORMAT.md): version, height,
///    submission ordinal, committed tx count, committed content keys. The
///    pool is not persisted.
///
/// Heights <= base (a restored snapshot's height) are compacted away: no
/// payload storage, and sync cannot be served below them.
class CommittedChain {
 public:
  /// Fired once per locally committed block with its height and the exact
  /// durable payload: a CERTIFIED block (proposal plus its precommit
  /// quorum), so replay can re-verify the certificate. NodeHost points it
  /// at the WAL, installed only after recovery replay so replayed blocks
  /// are not re-logged.
  using CommitHook = std::function<void(std::uint64_t height, codec::ByteView raw)>;
  using AppCallback = std::function<void(const ledger::Block&)>;

  CommittedChain(CommittedChainConfig cfg, sim::Simulation& timers,
                 ITransport& transport);

  /// Arm the sync pull (when a peer exists) and the submission retransmit
  /// timers.
  void start();

  std::uint64_t height() const { return height_; }
  /// The local submission ordinal IBlockLedger::append returns.
  ledger::TxIdx next_ordinal() { return static_cast<ledger::TxIdx>(appended_++); }

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_app_callback(AppCallback cb) { app_cb_ = std::move(cb); }

  /// Pool the own tx `tx` (content key `key`), send it to every peer and
  /// keep resending it until the key commits. False, with nothing sent,
  /// when the pool refuses it: the key is committed or pooled already, or
  /// the tx cannot fit a block.
  bool submit(std::string key, ledger::Transaction tx);
  /// Pool a peer's submitted tx; refuses what submit() refuses.
  bool accept(std::string key, ledger::Transaction tx);
  /// The next block's txs: pooled txs in arrival order, as many as fit
  /// kMaxBlockBytes of encoded size. They stay pooled until they commit;
  /// the pointers hold until the pool next changes.
  std::vector<const ledger::Transaction*> reap() const;
  bool pool_empty() const { return pool_.empty(); }

  /// Apply the committed block at height()+1. `raw` is its durable payload:
  /// what the commit hook logs and sync serves. Returns the stored copy.
  /// The application callback runs on `txs` before this returns.
  codec::ByteView commit(std::uint64_t height, std::uint32_t proposer,
                         std::vector<ledger::Transaction>&& txs, codec::Bytes raw);

  /// Answer a kBlockSyncRequest with the stored payloads from
  /// `from_height` up, as many as one sync response carries; nothing when
  /// none of them is held.
  void serve_sync(EndpointId to, std::uint64_t from_height);
  /// Ask `peer` for the blocks above height(): the periodic pull's request,
  /// also sent at once by a ledger that sees it has fallen behind.
  void request_sync(EndpointId peer);

  /// Snapshot state prefix, led by the caller's format `version` byte.
  void serialize_state(codec::Writer& w, std::uint8_t version) const;
  /// Inverse onto a fresh chain; false on malformed input or a version
  /// other than `version`. Leaves base == height == the snapshot height.
  bool restore_state(codec::Reader& r, std::uint8_t version);

 private:
  /// One tx not yet seen in a committed block.
  struct Pooled {
    ledger::Transaction tx;
    bool own = false;  ///< submitted here: retransmitted until committed
    std::uint32_t attempt = 0;
    sim::Time next_send = 0;
  };

  /// Admit `tx` at the pool's tail; nullptr when refused.
  Pooled* pool(std::string key, ledger::Transaction&& tx);
  void send_submit(const ledger::Transaction& tx);
  void sync_tick();
  void retry_tick();

  CommittedChainConfig cfg_;
  sim::Simulation& timers_;
  ITransport& transport_;
  sim::Time retry_tick_;

  /// raw_[h-1-base_] is the payload of height h. A deque keeps the views
  /// commit() returns stable.
  std::deque<codec::Bytes> raw_;
  /// Content keys of every committed tx. Persisted in snapshots: after a
  /// restart the WAL-gap replay re-publishes proofs it re-derives, and
  /// deterministic signatures make those re-appends byte-identical — the
  /// pool drops them against this set instead of re-committing them.
  std::unordered_set<std::string> keys_;
  /// The pool in arrival order, and its entries by content key.
  std::list<Pooled> pool_;
  std::unordered_map<std::string, std::list<Pooled>::iterator> pooled_;
  CommitHook commit_hook_;
  AppCallback app_cb_;

  std::uint64_t height_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t appended_ = 0;
  std::uint32_t sync_cursor_ = 0;
};

}  // namespace setchain::net
