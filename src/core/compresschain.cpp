#include "core/compresschain.hpp"

#include "codec/lz77.hpp"

namespace setchain::core {

CompresschainServer::CompresschainServer(ServerContext ctx, crypto::ProcessId id)
    : SetchainServer(std::move(ctx), id),
      collector_(this->ctx_.sim, this->ctx_.params->collector_limit,
                 this->ctx_.params->collector_timeout,
                 [this](Batch&& b) { on_batch_ready(std::move(b)); }) {
  collector_.set_origin(id);
}

bool CompresschainServer::add(Element e) {
  if (is_down()) return false;
  cpu_acquire(params().costs.validate_element);
  if (!valid_element(e, *ctx_.pki, fidelity())) return false;
  if (in_the_set(e.id)) return false;
  the_set_insert(e.id);
  collector_.add_element(std::move(e));
  return true;
}

void CompresschainServer::on_batch_ready(Batch&& batch) {
  if (is_down()) return;  // dying process: the batch never leaves the box
  const std::uint64_t raw_bytes = batch.wire_size();
  cpu_acquire(params().costs.compress_cost(raw_bytes));

  std::vector<ElementId> ids;
  if (ctx_.register_tx_elements) {
    ids.reserve(batch.elements.size());
    for (const auto& e : batch.elements) ids.push_back(e.id);
  }

  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kCompressedBatch;
  if (fidelity() == Fidelity::kFull) {
    codec::Bytes compressed;
    compressed_size(batch, fidelity(), params().calibrated_compress_ratio, &compressed);
    tx.data = std::move(compressed);
    tx.wire_size = static_cast<std::uint32_t>(tx.data.size());
  } else {
    tx.wire_size = static_cast<std::uint32_t>(
        compressed_size(batch, fidelity(), params().calibrated_compress_ratio));
    tx.app = std::make_shared<Batch>(std::move(batch));
  }
  const ledger::TxIdx idx = ctx_.ledger->append(id_, std::move(tx));
  if (ctx_.register_tx_elements) ctx_.register_tx_elements(idx, ids);
  ++batches_appended_;
}

void CompresschainServer::on_crash(bool wipe) {
  (void)wipe;  // all algorithm-specific state here is volatile
  collector_.clear();
}

sim::Time CompresschainServer::block_cost(const ledger::Block& b) const {
  if (!params().validate) return 0;
  sim::Time cost = 0;
  for (const ledger::Transaction* t : b.txs) {
    const ledger::Transaction& tx = *t;
    if (tx.kind != ledger::TxKind::kCompressedBatch &&
        fidelity() == Fidelity::kCalibrated) {
      cost += params().costs.check_tx_cost(tx.wire_size);
      continue;
    }
    // Decompression over the (approximate) raw size plus per-entry checks.
    std::uint64_t raw = tx.wire_size * 3;
    std::uint64_t n_elements = 0;
    std::uint64_t n_proofs = 0;
    if (const auto* batch = tx.app_as<Batch>()) {
      raw = batch->wire_size();
      n_elements = batch->elements.size();
      n_proofs = batch->proofs.size();
    } else if (fidelity() == Fidelity::kFull) {
      n_elements = raw / 450;  // pre-parse estimate; real work happens below
    }
    cost += params().costs.decompress_cost(raw);
    cost += static_cast<sim::Time>(n_elements) * params().costs.validate_element;
    // Piggybacked proof signatures go through the Ed25519 batch path:
    // one amortized batch cost per compressed batch.
    cost += params().costs.verify_batch_cost(n_proofs);
  }
  return cost;
}

void CompresschainServer::process_block(const ledger::Block& b) {
  for (const ledger::Transaction* t : b.txs) {
    const ledger::Transaction& tx = *t;
    if (fidelity() == Fidelity::kFull) {
      const auto raw = codec::lz77_decompress(tx.data);
      if (!raw) continue;  // not a compressed batch (Byzantine garbage)
      const auto batch = parse_batch(*raw);
      if (!batch) continue;
      process_batch(*batch, b);
    } else {
      const auto* batch = tx.app_as<Batch>();
      if (tx.kind != ledger::TxKind::kCompressedBatch || !batch) continue;
      process_batch(*batch, b);
    }
  }
}

void CompresschainServer::process_batch(const Batch& batch, const ledger::Block& b) {
  // One Ed25519 batch check covers every piggybacked proof signature.
  absorb_proofs(batch.proofs, b.first_commit_at);

  if (ctx_.recorder) {
    for (const auto& e : batch.elements) ctx_.recorder->on_ledger(e.id, b.first_commit_at);
  }

  // "Compresschain Light" (Fig. 2 left) skips element validation; epochs are
  // still formed from the batch content (all servers correct by assumption).
  std::vector<Element> g;
  if (params().validate) {
    g = extract_new_valid(batch.elements);
  } else {
    g.reserve(batch.elements.size());
    for (const auto& e : batch.elements) {
      if (!in_history(e.id)) g.push_back(e);
    }
  }

  std::uint64_t g_bytes = 0;
  for (const auto& e : g) {
    the_set_insert(e.id);
    g_bytes += e.wire_size;
  }
  if (!g.empty()) {
    cpu_acquire(params().costs.hash_cost(g_bytes) + params().costs.sign);
    EpochProof p = consolidate(g, b.first_commit_at);
    if (!proof_already_published(p.epoch)) collector_.add_proof(std::move(p));
  }
}

}  // namespace setchain::core
