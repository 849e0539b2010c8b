#include "core/setchain_base.hpp"

#include <algorithm>

namespace setchain::core {

SetchainServer::SetchainServer(ServerContext ctx, crypto::ProcessId id)
    : ctx_(std::move(ctx)), id_(id) {}

SetchainServer::Snapshot SetchainServer::get() const {
  return Snapshot{&the_set_, &history_, epoch_, &proofs_};
}

const std::vector<EpochProof>& SetchainServer::proofs_for_epoch(
    std::uint64_t epoch_number) const {
  static const std::vector<EpochProof> kNoProofs;
  if (down_) return kNoProofs;  // unreachable process serves nothing
  if (epoch_number == 0 || epoch_number > proofs_.size()) return kNoProofs;
  return proofs_[epoch_number - 1];
}

void SetchainServer::on_new_block(const ledger::Block& b) {
  if (down_) return;  // a crashed node never sees this block (until replay)
  const auto apply = [this, &b] {
    applied_height_ = b.height;
    process_block(b);
  };
  if (!has_simulated_cpu()) {
    apply();
    return;
  }
  // The CPU keeps per-server block order; a crash before completion kills
  // the continuation with the incarnation that queued it.
  const sim::Time done = cpu_acquire(block_cost(b));
  ctx_.sim->schedule_at(done, [this, apply, inc = incarnation_] {
    if (inc == incarnation_) apply();
  });
}

void SetchainServer::crash(bool wipe) {
  if (down_) return;
  down_ = true;
  ++crashes_;
  ++incarnation_;  // kill CPU-queued continuations of the previous life
  if (wipe) {
    // Parked pending proofs are derived purely from blocks <= applied_height,
    // so they survive a retained crash with the rest of the persisted state;
    // only a wipe loses them (and the replay from genesis re-parks them).
    pending_proofs_.clear();
    applied_height_ = 0;
    // The replay must not re-append proof transactions for epochs the
    // previous life consolidated: most were already published (duplicates
    // would bloat the ledger), and the few still buffered in the collector
    // at crash time died with it — for those this server simply never
    // contributes a proof, which the f bound absorbs (P8 needs f+1 of n).
    // max(): a second wipe mid-recovery must not lower the boundary an
    // earlier life established.
    republish_boundary_ = std::max(republish_boundary_, epoch_);
    the_set_.clear();
    the_set_count_ = 0;
    history_members_.clear();
    history_.clear();
    proofs_.clear();
    proof_servers_.clear();
    epoch_ = 0;
  }
  on_crash(wipe);
}

void SetchainServer::restart() {
  if (!down_) return;
  down_ = false;
  on_restart();
}

bool SetchainServer::epoch_proven(std::uint64_t epoch_number) const {
  if (down_) return false;  // unreachable process answers nothing
  if (epoch_number == 0 || epoch_number > proof_servers_.size()) return false;
  return proof_servers_[epoch_number - 1].size() >= params().f + 1;
}

bool SetchainServer::in_the_set(ElementId id) const {
  if (params().lean_state) return false;
  return the_set_.contains(id);
}

bool SetchainServer::the_set_insert(ElementId id) {
  if (params().lean_state) {
    ++the_set_count_;
    return true;
  }
  const bool inserted = the_set_.insert(id).second;
  if (inserted) ++the_set_count_;
  return inserted;
}

bool SetchainServer::in_history(ElementId id) const {
  if (params().lean_state) return false;
  return history_members_.contains(id);
}

std::vector<Element> SetchainServer::extract_new_valid(
    const std::vector<Element>& es) const {
  const std::vector<bool> valid = valid_elements(es, *ctx_.pki, fidelity());
  std::vector<Element> g;
  g.reserve(es.size());
  std::unordered_set<ElementId> in_g;
  for (std::size_t i = 0; i < es.size(); ++i) {
    const Element& e = es[i];
    if (!valid[i]) continue;
    if (in_history(e.id)) continue;
    if (!params().lean_state && !in_g.insert(e.id).second) continue;
    g.push_back(e);
  }
  return g;
}

EpochProof SetchainServer::consolidate(const std::vector<Element>& g,
                                       sim::Time ledger_time) {
  const std::uint64_t number = ++epoch_;

  EpochRecord rec;
  rec.number = number;
  rec.count = g.size();
  std::vector<std::pair<ElementId, std::uint64_t>> id_digests;
  id_digests.reserve(g.size());
  for (const auto& e : g) {
    rec.bytes += e.wire_size;
    id_digests.emplace_back(e.id, element_digest(e, fidelity()));
  }
  std::sort(id_digests.begin(), id_digests.end());
  rec.hash = epoch_hash(number, id_digests, fidelity());
  if (!params().lean_state) {
    rec.ids.reserve(g.size());
    for (const auto& [id, _] : id_digests) rec.ids.push_back(id);
    for (const auto id : rec.ids) history_members_.insert(id);
  }
  history_.push_back(std::move(rec));
  proofs_.emplace_back();
  proof_servers_.emplace_back();

  if (ctx_.recorder) {
    ctx_.recorder->on_epoch_consolidated(number, history_.back().count,
                                         history_.back().ids, ledger_time);
  }
  if (ctx_.on_epoch) {
    // Hand elements over in canonical (id-sorted) order, matching rec.ids.
    std::vector<Element> ordered = g;
    std::sort(ordered.begin(), ordered.end(),
              [](const Element& a, const Element& b) { return a.id < b.id; });
    ctx_.on_epoch(history_.back(), ordered);
  }

  EpochProof p = make_epoch_proof(*ctx_.pki, id_, number, history_.back().hash,
                                  fidelity());
  if (byz_.corrupt_proofs) {
    // Sign garbage: flip the hash (and re-sign it in full fidelity so the
    // signature itself is fine but binds the wrong content).
    EpochHash wrong = history_.back().hash;
    wrong[0] ^= 0xFF;
    p = make_epoch_proof(*ctx_.pki, id_, number, wrong, fidelity());
  }

  try_flush_pending_proofs(ledger_time);
  return p;
}

void SetchainServer::absorb_proof(const EpochProof& p, sim::Time ledger_time,
                                  SigCheck presig) {
  if (p.epoch == 0) return;
  if (p.epoch > epoch_) {
    // Not consolidated locally yet: park it (bounded against Byzantine
    // epoch-number bombs).
    if (p.epoch > epoch_ + kMaxPendingEpochAhead) return;
    auto& bucket = pending_proofs_[p.epoch];
    if (bucket.size() < 2 * params().n) bucket.push_back(PendingProof{p, presig});
    return;
  }
  const EpochRecord& rec = history_[p.epoch - 1];
  if (!valid_proof(p, rec.hash, *ctx_.pki, fidelity(), presig)) return;
  auto& servers = proof_servers_[p.epoch - 1];
  if (!servers.insert(p.server).second) return;  // duplicate
  proofs_[p.epoch - 1].push_back(p);
  if (ctx_.recorder) ctx_.recorder->on_proof_on_ledger(p.epoch, p.server, ledger_time);
}

void SetchainServer::absorb_proofs(const std::vector<EpochProof>& ps,
                                   sim::Time ledger_time) {
  const std::vector<SigCheck> sigs = batch_check_proof_sigs(ps, *ctx_.pki, fidelity());
  for (std::size_t i = 0; i < ps.size(); ++i) absorb_proof(ps[i], ledger_time, sigs[i]);
}

void SetchainServer::try_flush_pending_proofs(sim::Time ledger_time) {
  auto it = pending_proofs_.find(epoch_);
  if (it == pending_proofs_.end()) return;
  const auto bucket = std::move(it->second);
  pending_proofs_.erase(it);
  for (const auto& pp : bucket) absorb_proof(pp.proof, ledger_time, pp.presig);
}

namespace {
constexpr std::uint8_t kServerStateVersion = 1;
}

void SetchainServer::serialize_state(codec::Writer& w) const {
  w.u8(kServerStateVersion);
  w.varint(epoch_);
  w.varint(applied_height_);

  w.varint(history_.size());
  for (const EpochRecord& rec : history_) {
    w.varint(rec.number);
    w.varint(rec.count);
    w.varint(rec.bytes);
    w.bytes(codec::ByteView(rec.hash.data(), rec.hash.size()));
    w.varint(rec.ids.size());
    // ids are sorted ascending: delta-encode so dense id ranges stay small.
    ElementId prev = 0;
    for (ElementId id : rec.ids) {
      w.varint(id - prev);
      prev = id;
    }
  }

  for (const auto& bucket : proofs_) {
    w.varint(bucket.size());
    for (const EpochProof& p : bucket) serialize_epoch_proof(w, p);
  }

  w.varint(pending_proofs_.size());
  for (const auto& [epoch_number, bucket] : pending_proofs_) {
    w.varint(epoch_number);
    w.varint(bucket.size());
    // The batch-verified presig verdict is dropped: on restore the proofs
    // re-verify through the normal scalar path (correct, just slower once).
    for (const PendingProof& pp : bucket) serialize_epoch_proof(w, pp.proof);
  }

  serialize_derived(w);
}

bool SetchainServer::restore_state(codec::Reader& r) {
  const auto version = r.u8();
  if (!version || *version != kServerStateVersion) return false;
  const auto epoch = r.varint();
  const auto applied = r.varint();
  const auto history_count = r.varint();
  if (!epoch || !applied || !history_count) return false;

  the_set_.clear();
  the_set_count_ = 0;
  history_members_.clear();
  history_.clear();
  proofs_.clear();
  proof_servers_.clear();
  pending_proofs_.clear();
  epoch_ = *epoch;
  applied_height_ = *applied;

  history_.reserve(static_cast<std::size_t>(*history_count));
  for (std::uint64_t i = 0; i < *history_count; ++i) {
    EpochRecord rec;
    const auto number = r.varint();
    const auto count = r.varint();
    const auto bytes = r.varint();
    const auto hash = r.bytes(rec.hash.size());
    const auto ids_count = r.varint();
    if (!number || !count || !bytes || !hash || !ids_count) return false;
    rec.number = *number;
    rec.count = *count;
    rec.bytes = *bytes;
    std::memcpy(rec.hash.data(), hash->data(), rec.hash.size());
    rec.ids.reserve(static_cast<std::size_t>(*ids_count));
    ElementId prev = 0;
    for (std::uint64_t k = 0; k < *ids_count; ++k) {
      const auto delta = r.varint();
      if (!delta) return false;
      prev += *delta;
      rec.ids.push_back(prev);
    }
    // the_set restores as exactly the consolidated membership: elements
    // add()ed but not yet epoch'd at snapshot time were volatile and are
    // re-added by clients (in_history dedup makes that idempotent).
    if (params().lean_state) {
      the_set_count_ += rec.count;
    } else {
      for (ElementId id : rec.ids) {
        history_members_.insert(id);
        if (the_set_.insert(id).second) ++the_set_count_;
      }
    }
    history_.push_back(std::move(rec));
  }
  if (history_.size() != epoch_) return false;

  proofs_.resize(history_.size());
  proof_servers_.resize(history_.size());
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const auto count = r.varint();
    if (!count) return false;
    for (std::uint64_t k = 0; k < *count; ++k) {
      // serialize_epoch_proof emits the frame tag; consume it before parsing.
      const auto tag = r.u8();
      if (!tag || *tag != kEpochProofTag) return false;
      auto p = parse_epoch_proof(r);
      if (!p) return false;
      if (proof_servers_[i].insert(p->server).second) proofs_[i].push_back(*p);
    }
  }

  const auto pending_count = r.varint();
  if (!pending_count) return false;
  for (std::uint64_t i = 0; i < *pending_count; ++i) {
    const auto epoch_number = r.varint();
    const auto count = r.varint();
    if (!epoch_number || !count) return false;
    auto& bucket = pending_proofs_[*epoch_number];
    for (std::uint64_t k = 0; k < *count; ++k) {
      const auto tag = r.u8();
      if (!tag || *tag != kEpochProofTag) return false;
      auto p = parse_epoch_proof(r);
      if (!p) return false;
      bucket.push_back(PendingProof{*p, SigCheck::kUnchecked});
    }
  }

  // The WAL-gap replay behind this restore re-consolidates epochs past the
  // snapshot and must not re-publish proofs for anything at or below it —
  // the previous life already put those on the ledger.
  republish_boundary_ = std::max(republish_boundary_, epoch_);

  return restore_derived(r);
}

sim::Time SetchainServer::cpu_acquire(sim::Time cost) {
  if (!has_simulated_cpu()) return now();
  return (*ctx_.cpus)[id_].acquire(now(), cost);
}

sim::Time SetchainServer::now() const { return ctx_.sim ? ctx_.sim->now() : 0; }

}  // namespace setchain::core
