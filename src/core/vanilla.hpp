#pragma once

#include "core/setchain_base.hpp"

namespace setchain::core {

/// Algorithm Vanilla (Appendix B): every element is appended to the ledger
/// as its own transaction; the valid elements of each block form one epoch;
/// epoch-proofs are appended directly as ledger transactions. Throughput and
/// latency are those of the underlying ledger — the baseline the other two
/// algorithms improve on.
class VanillaServer final : public SetchainServer {
 public:
  VanillaServer(ServerContext ctx, crypto::ProcessId id);

  bool add(Element e) override;

  std::uint64_t elements_appended() const { return elements_appended_; }

 protected:
  sim::Time block_cost(const ledger::Block& b) const override;
  void process_block(const ledger::Block& b) override;

 private:
  void append_proof(const EpochProof& p);

  std::uint64_t elements_appended_ = 0;
};

}  // namespace setchain::core
