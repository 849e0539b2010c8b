#include "core/vanilla.hpp"

namespace setchain::core {

VanillaServer::VanillaServer(ServerContext ctx, crypto::ProcessId id)
    : SetchainServer(std::move(ctx), id) {}

bool VanillaServer::add(Element e) {
  if (is_down()) return false;
  cpu_acquire(params().costs.validate_element);
  if (!valid_element(e, *ctx_.pki, fidelity())) return false;
  if (in_the_set(e.id)) return false;
  the_set_insert(e.id);

  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kElement;
  tx.wire_size = e.wire_size;
  const ElementId eid = e.id;
  if (fidelity() == Fidelity::kFull) {
    codec::Writer w;
    serialize_element(w, e);
    tx.data = w.take();
    tx.wire_size = static_cast<std::uint32_t>(tx.data.size());
  } else {
    tx.app = std::make_shared<Element>(std::move(e));
  }
  const ledger::TxIdx idx = ctx_.ledger->append(id_, std::move(tx));
  if (ctx_.register_tx_elements) ctx_.register_tx_elements(idx, {eid});
  ++elements_appended_;
  return true;
}

sim::Time VanillaServer::block_cost(const ledger::Block& b) const {
  // Epoch-proof signatures are verified through the batch path, so the
  // whole block is charged one amortized batch cost instead of a standalone
  // verify per proof.
  sim::Time cost = 0;
  std::uint64_t n_proofs = 0;
  for (const ledger::Transaction* tx : b.txs) {
    switch (tx->kind) {
      case ledger::TxKind::kElement:
        cost += params().costs.validate_element;
        break;
      case ledger::TxKind::kEpochProof:
        ++n_proofs;
        break;
      default:
        cost += params().costs.check_tx_cost(tx->wire_size);
        break;
    }
  }
  return cost + params().costs.verify_batch_cost(n_proofs);
}

void VanillaServer::process_block(const ledger::Block& b) {
  std::vector<Element> elements;
  std::vector<EpochProof> proofs;

  for (const ledger::Transaction* t : b.txs) {
    const ledger::Transaction& tx = *t;
    if (fidelity() == Fidelity::kFull) {
      // Parse from the wire; anything malformed (Byzantine garbage) is
      // skipped.
      codec::Reader r(tx.data);
      const auto tag = r.u8();
      if (!tag) continue;
      if (*tag == kElementTag) {
        if (auto e = parse_element(r)) elements.push_back(std::move(*e));
      } else if (*tag == kEpochProofTag) {
        if (auto p = parse_epoch_proof(r)) proofs.push_back(std::move(*p));
      }
    } else {
      if (tx.kind == ledger::TxKind::kElement) {
        if (const auto* e = tx.app_as<Element>()) elements.push_back(*e);
      } else if (tx.kind == ledger::TxKind::kEpochProof) {
        if (const auto* p = tx.app_as<EpochProof>()) proofs.push_back(*p);
      }
    }
  }
  // One Ed25519 batch check covers every proof signature in the block.
  absorb_proofs(proofs, b.first_commit_at);

  if (ctx_.recorder) {
    for (const auto& e : elements) ctx_.recorder->on_ledger(e.id, b.first_commit_at);
  }

  const std::vector<Element> g = extract_new_valid(elements);
  std::uint64_t g_bytes = 0;
  for (const auto& e : g) {
    the_set_insert(e.id);
    g_bytes += e.wire_size;
  }
  if (!g.empty()) {
    // Deviation from the pseudocode (which increments the epoch for every
    // block): blocks whose transactions carry no new valid element do not
    // create an (empty) epoch. Combined with CometBFT's
    // create_empty_blocks=false this makes runs terminate; see DESIGN.md.
    cpu_acquire(params().costs.hash_cost(g_bytes) + params().costs.sign);
    const EpochProof p = consolidate(g, b.first_commit_at);
    if (!proof_already_published(p.epoch)) append_proof(p);
  }
}

void VanillaServer::append_proof(const EpochProof& p) {
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kEpochProof;
  tx.wire_size = kEpochProofWireSize;
  if (fidelity() == Fidelity::kFull) {
    codec::Writer w;
    serialize_epoch_proof(w, p);
    tx.data = w.take();
    tx.wire_size = static_cast<std::uint32_t>(tx.data.size());
  } else {
    tx.app = std::make_shared<EpochProof>(p);
  }
  ctx_.ledger->append(id_, std::move(tx));
}

}  // namespace setchain::core
