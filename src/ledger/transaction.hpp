#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "codec/bytes.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"

namespace setchain::ledger {

/// Index into the run-wide TxTable. Transactions are stored once and
/// referenced by index from mempools and blocks, keeping high-rate runs
/// (millions of ledger transactions) cheap in memory.
using TxIdx = std::uint32_t;

/// Application-level meaning of a ledger transaction. The ledger itself is
/// agnostic ("we prefer not to call this object a blockchain since its
/// transactions have no semantics" — §2); the tag lets the Setchain layer
/// dispatch without re-parsing in calibrated-fidelity runs.
enum class TxKind : std::uint8_t {
  kOpaque = 0,           ///< unknown bytes (e.g. garbage from a Byzantine node)
  kElement = 1,          ///< Vanilla: one Setchain element
  kEpochProof = 2,       ///< Vanilla: one epoch-proof
  kCompressedBatch = 3,  ///< Compresschain: one compressed batch
  kHashBatch = 4,        ///< Hashchain: <hash, signature, server>
};

struct Transaction {
  std::uint64_t uid = 0;        ///< globally unique id (dedup key)
  TxKind kind = TxKind::kOpaque;
  std::uint32_t wire_size = 0;  ///< bytes on the wire / in a block
  codec::Bytes data;            ///< serialized form (full fidelity)
  std::shared_ptr<const void> app;  ///< semantic payload (calibrated fidelity)

  /// Typed access to the calibrated-fidelity payload.
  template <typename T>
  const T* app_as() const {
    return static_cast<const T*>(app.get());
  }
};

/// One ledger block as delivered to a server. `txs` points at transactions
/// the delivering ledger owns; how long they stay valid is the ledger's
/// lifetime rule (IBlockLedger).
struct Block {
  std::uint64_t height = 0;  ///< 1-based
  sim::NodeId proposer = 0;
  sim::Time proposed_at = 0;
  sim::Time first_commit_at = 0;  ///< earliest commit across correct nodes
  std::vector<const Transaction*> txs;
  std::uint64_t bytes = 0;
};

/// Run-wide transaction arena of the simulated ledgers. Appends only; uids
/// are assigned sequentially so per-node dedup can use plain bit vectors.
/// A deque: references stay valid for the blocks that point into it.
class TxTable {
 public:
  /// Stores `tx`, assigns its uid, returns its index (== uid).
  TxIdx add(Transaction tx);

  const Transaction& get(TxIdx idx) const { return txs_[idx]; }
  std::size_t size() const { return txs_.size(); }

 private:
  std::deque<Transaction> txs_;
};

}  // namespace setchain::ledger
