#pragma once

#include "core/setchain_base.hpp"

namespace setchain::core {

/// Algorithm Compresschain (§3): client elements and epoch-proofs accumulate
/// in a collector; full (or timed-out) batches are compressed and appended
/// to the ledger as a single transaction; every compressed batch in a block
/// becomes one epoch. Throughput improves over Vanilla by the compression
/// ratio and the amortized per-transaction overhead.
class CompresschainServer final : public SetchainServer {
 public:
  CompresschainServer(ServerContext ctx, crypto::ProcessId id);

  bool add(Element e) override;

  Collector& collector() { return collector_; }
  std::uint64_t batches_appended() const { return batches_appended_; }

 protected:
  void on_crash(bool wipe) override;
  sim::Time block_cost(const ledger::Block& b) const override;
  void process_block(const ledger::Block& b) override;

 private:
  void on_batch_ready(Batch&& batch);
  void process_batch(const Batch& batch, const ledger::Block& b);

  Collector collector_;
  std::uint64_t batches_appended_ = 0;
};

}  // namespace setchain::core
