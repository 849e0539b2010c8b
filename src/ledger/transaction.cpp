#include "ledger/transaction.hpp"

namespace setchain::ledger {

TxIdx TxTable::add(Transaction tx) {
  const TxIdx idx = static_cast<TxIdx>(txs_.size());
  tx.uid = idx;
  txs_.push_back(std::move(tx));
  return idx;
}

}  // namespace setchain::ledger
