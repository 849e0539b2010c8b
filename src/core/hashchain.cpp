#include "core/hashchain.hpp"

#include "sim/rng.hpp"

namespace setchain::core {

HashchainServer::HashchainServer(ServerContext ctx, crypto::ProcessId id)
    : SetchainServer(std::move(ctx), id),
      collector_(this->ctx_.sim, this->ctx_.params->collector_limit,
                 this->ctx_.params->collector_timeout,
                 [this](Batch&& b) { on_batch_ready(std::move(b)); }) {
  collector_.set_origin(id);
}

bool HashchainServer::add(Element e) {
  if (is_down()) return false;
  cpu_acquire(params().costs.validate_element);
  if (!valid_element(e, *ctx_.pki, fidelity())) return false;
  if (in_the_set(e.id)) return false;
  the_set_insert(e.id);
  collector_.add_element(std::move(e));
  return true;
}

void HashchainServer::on_crash(bool wipe) {
  collector_.clear();
  if (wipe) {
    store_.clear();
    hash_state_.clear();
    consolidation_queue_.clear();
  } else {
    // In-flight fetch attempts die with the process; retained-state restarts
    // re-issue them from the consolidation queue (on_restart).
    for (auto& [h, st] : hash_state_) st.fetching = false;
  }
}

void HashchainServer::on_restart() {
  // Resume head-of-line fetches for anything still queued (retained state);
  // wiped servers rebuild the queue from the ledger replay instead.
  try_consolidate();
}

void HashchainServer::on_batch_ready(Batch&& batch) {
  if (is_down()) return;  // dying process: the batch never leaves the box
  codec::Bytes serialized;
  if (fidelity() == Fidelity::kFull) serialized = serialize_batch(batch);
  cpu_acquire(params().costs.hash_cost(batch.wire_size()) + params().costs.sign);

  auto ptr = std::make_shared<const Batch>(std::move(batch));
  const EpochHash h = batch_hash(*ptr, fidelity());

  // hash_to_batch[h] <- batch; Register_batch(h, batch).
  store_.put(h, ptr, std::move(serialized));
  hash_state_[h].own_appended = true;
  append_hash_batch(h);
  // Byzantine: pair every real announcement with a hash nobody can reverse.
  // Correct servers must ignore the fakes without stalling on the real batch.
  if (byz_.fake_hash_batches) byz_announce_fake_hash();
}

void HashchainServer::append_hash_batch(const EpochHash& h) {
  const HashBatchMsg hb = make_hash_batch(*ctx_.pki, id_, h, fidelity());
  ledger::Transaction tx;
  tx.kind = ledger::TxKind::kHashBatch;
  tx.wire_size = kHashBatchWireSize;
  if (fidelity() == Fidelity::kFull) {
    codec::Writer w;
    serialize_hash_batch(w, hb);
    tx.data = w.take();
    tx.wire_size = static_cast<std::uint32_t>(tx.data.size());
  } else {
    tx.app = std::make_shared<HashBatchMsg>(hb);
  }
  const ledger::TxIdx idx = ctx_.ledger->append(id_, std::move(tx));
  ++hash_batches_appended_;

  // Associate carried elements with the hash-batch tx for stage metrics
  // (only for our own batch announcements — the first carrier).
  if (ctx_.register_tx_elements) {
    if (const BatchPtr batch = store_.find(h); batch && !batch->elements.empty()) {
      const HashState& st = hash_state_[h];
      if (st.own_appended && batch->origin == id_) {
        std::vector<ElementId> ids;
        ids.reserve(batch->elements.size());
        for (const auto& e : batch->elements) ids.push_back(e.id);
        ctx_.register_tx_elements(idx, ids);
      }
    }
  }
}

void HashchainServer::byz_announce_fake_hash() {
  EpochHash h{};
  std::uint64_t seed = 0xFA4EULL ^ (static_cast<std::uint64_t>(id_) << 32) ^
                       hash_batches_appended_;
  for (std::size_t i = 0; i < h.size(); i += 8) {
    const std::uint64_t v = sim::splitmix64(seed);
    for (std::size_t j = 0; j < 8; ++j) h[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
  }
  hash_state_[h].own_appended = true;  // never serve it, never re-sign
  append_hash_batch(h);
}

sim::Time HashchainServer::block_cost(const ledger::Block& b) const {
  if (!params().hash_reversal) return 0;
  // Hash-batch announcement signatures are verified through the Ed25519
  // batch path: one amortized batch cost per block instead of a standalone
  // verify per announcement.
  sim::Time cost = 0;
  std::uint64_t n_hash_batches = 0;
  for (const ledger::Transaction* tx : b.txs) {
    if (tx->kind == ledger::TxKind::kHashBatch ||
        (fidelity() == Fidelity::kFull && !tx->data.empty() &&
         tx->data[0] == kHashBatchTag)) {
      ++n_hash_batches;
    } else {
      cost += params().costs.check_tx_cost(tx->wire_size);
    }
  }
  return cost + params().costs.verify_batch_cost(n_hash_batches);
}

void HashchainServer::process_block(const ledger::Block& b) {
  std::vector<HashBatchMsg> hbs;
  for (const ledger::Transaction* t : b.txs) {
    const ledger::Transaction& tx = *t;
    std::optional<HashBatchMsg> hb;
    if (fidelity() == Fidelity::kFull) {
      codec::Reader r(tx.data);
      const auto tag = r.u8();
      if (!tag || *tag != kHashBatchTag) continue;
      hb = parse_hash_batch(r);
    } else {
      if (tx.kind != ledger::TxKind::kHashBatch) continue;
      if (const auto* p = tx.app_as<HashBatchMsg>()) hb = *p;
    }
    if (!hb) continue;
    if (hb->server >= params().n) continue;  // unknown signer
    hbs.push_back(std::move(*hb));
  }
  // One Ed25519 batch check covers every announcement signature in the
  // block; handling below stays in ledger order.
  const std::vector<SigCheck> sigs =
      params().hash_reversal ? batch_check_hash_batch_sigs(hbs, *ctx_.pki, fidelity())
                             : std::vector<SigCheck>(hbs.size(), SigCheck::kUnchecked);
  for (std::size_t i = 0; i < hbs.size(); ++i) {
    if (params().hash_reversal &&
        !valid_hash_batch(hbs[i], *ctx_.pki, fidelity(), sigs[i])) {
      continue;  // invalid signature
    }
    handle_hash_batch(hbs[i], b);
  }
  try_consolidate();
}

void HashchainServer::handle_hash_batch(const HashBatchMsg& hb, const ledger::Block& b) {
  HashState& st = hash_state_[hb.hash];
  if (st.signers.empty()) st.first_block_time = b.first_commit_at;
  const bool new_signer = st.signers.insert(hb.server).second;

  if (store_.contains(hb.hash)) {
    batch_now_available(hb.hash);
  } else if (params().hash_reversal) {
    if (new_signer && hb.server != id_) st.fetch_candidates.push_back(hb.server);
    if (!st.fetching && !st.consolidated) start_fetch(hb.hash);
  } else {
    // Light mode (Fig. 2 ablation): no reversal service; all servers are
    // assumed correct, so contents are taken straight from an up server's
    // store (zero-copy stand-in for a perfect dissemination layer) and the
    // server co-signs immediately. Scenario::validate() refuses to combine
    // this mode with a fault plan.
    if (const BatchPtr batch = ctx_.batch_exchange->find_anywhere(hb.hash)) {
      store_.put(hb.hash, batch);
    }
    batch_now_available(hb.hash);
  }

  if (st.signers.size() == params().f + 1 && !st.enqueued) {
    st.enqueued = true;
    st.consolidate_block_time = b.first_commit_at;
    consolidation_queue_.push_back(hb.hash);
  }
}

bool HashchainServer::in_committee(const EpochHash& h) const {
  const std::uint32_t requested = params().hashchain_committee;
  if (requested == 0 || requested >= params().n) return true;
  const std::uint32_t k = std::max(requested, params().f + 1);

  // Deterministic committee: every server scores (h, server) with the same
  // mixing function; the k lowest scores are the committee. Identical at
  // every correct server because it depends only on ledger content.
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    folded = (folded << 8) | h[i];
  }
  const auto score = [folded](std::uint32_t server) {
    std::uint64_t s = folded ^ (0x9E3779B97F4A7C15ULL * (server + 1));
    return sim::splitmix64(s);
  };
  const std::uint64_t own = score(id_);
  std::uint32_t strictly_lower = 0;
  std::uint32_t equal_lower_id = 0;
  for (std::uint32_t server = 0; server < params().n; ++server) {
    if (server == id_) continue;
    const std::uint64_t sc = score(server);
    if (sc < own) ++strictly_lower;
    if (sc == own && server < id_) ++equal_lower_id;  // total order tiebreak
  }
  return strictly_lower + equal_lower_id < k;
}

void HashchainServer::batch_now_available(const EpochHash& h) {
  HashState& st = hash_state_[h];
  const BatchPtr batch = store_.find(h);
  if (!batch) return;

  // Never co-sign a hash the ledger already shows our signature for: after
  // a wiped restart the replay re-delivers our own old announcements, and a
  // slow co-sign path may race its own announcement landing on the ledger.
  if (!st.own_appended && !st.signers.contains(id_) && in_committee(h)) {
    st.own_appended = true;
    cpu_acquire(params().costs.sign);
    append_hash_batch(h);
  }
  if (!st.proofs_absorbed) {
    st.proofs_absorbed = true;
    absorb_proofs(batch->proofs, st.first_block_time);
  }
  if (!st.elements_marked && ctx_.recorder) {
    st.elements_marked = true;
    for (const auto& e : batch->elements) {
      ctx_.recorder->on_ledger(e.id, st.first_block_time);
    }
  }
}

void HashchainServer::start_fetch(const EpochHash& h) {
  HashState& st = hash_state_[h];
  if (st.fetching || store_.contains(h)) return;
  st.fetching = true;
  // Fresh speculative budget per (re)started fetch: a new signer appearing
  // after an earlier give-up grants a full round of attempts again.
  st.give_up_after = st.attempt_seq + kMaxSpeculativeFetchAttempts;
  ++fetches_started_;
  fetch_attempt(h);
}

void HashchainServer::fetch_attempt(const EpochHash& h) {
  HashState& st = hash_state_[h];
  if (store_.contains(h)) {
    st.fetching = false;
    return;
  }
  if (st.fetch_candidates.empty()) {
    st.fetching = false;
    return;
  }
  const crypto::ProcessId target =
      st.fetch_candidates[st.next_candidate % st.fetch_candidates.size()];
  ++st.next_candidate;
  const std::uint64_t attempt = ++st.attempt_seq;

  // The answer (or silence) comes back through on_batch_response. Without
  // a clock (synchronous in-process exchange) it has already arrived.
  ctx_.batch_exchange->send_request(id_, target, h, kRequestWireSize);
  if (ctx_.sim) {
    ctx_.sim->schedule_in(params().request_batch_timeout,
                          [this, h, attempt] { on_fetch_timeout(h, attempt); });
  } else if (!store_.contains(h)) {
    on_fetch_timeout(h, attempt);
  }
}

void HashchainServer::serve_batch_request(crypto::ProcessId requester, const EpochHash& h) {
  if (is_down()) return;               // crashed: silence
  if (byz_.refuse_batch_service) return;  // Byzantine: silence
  const BatchPtr batch = store_.find(h);
  if (!batch) return;  // honest "don't have it" (also silence; requester times out)

  // Serving costs CPU (lookup + serialization + RPC overhead). With a
  // simulated CPU the response leaves once the serving core gets to it —
  // and never from a later incarnation: a crash in between silences it.
  const sim::Time done = cpu_acquire(params().costs.request_batch_overhead +
                                     params().costs.hash_cost(batch->wire_size()));
  if (!has_simulated_cpu()) {
    send_batch(requester, h);
    return;
  }
  ctx_.sim->schedule_at(done, [this, requester, h, inc = incarnation()] {
    if (inc == incarnation()) send_batch(requester, h);
  });
}

void HashchainServer::send_batch(crypto::ProcessId requester, const EpochHash& h) {
  if (const BatchPtr batch = store_.find(h)) {
    ctx_.batch_exchange->send_response(id_, requester, h, batch,
                                       store_.find_serialized(h));
  }
}

void HashchainServer::on_batch_response(const EpochHash& h, BatchPtr batch,
                                        codec::Bytes&& serialized) {
  if (is_down()) return;
  HashState& st = hash_state_[h];
  if (store_.contains(h)) return;  // duplicate/late response

  // Verify the contents actually hash to h (the responder may be Byzantine).
  cpu_acquire(params().costs.request_batch_overhead +
              params().costs.hash_cost(batch->wire_size()));
  if (batch_hash(*batch, fidelity()) != h) return;
  // Element validation cost: the paper validates fetched batch contents.
  cpu_acquire(static_cast<sim::Time>(batch->elements.size()) *
              params().costs.validate_element);
  if (fidelity() != Fidelity::kFull) serialized.clear();  // bytes not kept
  store_.put(h, std::move(batch), std::move(serialized));

  st.fetching = false;
  batch_now_available(h);
  try_consolidate();
}

void HashchainServer::on_fetch_timeout(const EpochHash& h, std::uint64_t attempt) {
  if (is_down()) return;  // stale timer from before the crash
  HashState& st = hash_state_[h];
  if (store_.contains(h)) return;
  if (st.attempt_seq != attempt) return;  // superseded attempt
  ++fetches_failed_;
  // A hash that is not (yet) blocking consolidation is only fetched
  // speculatively — give up after a few dead ends instead of polling a
  // vanished holder forever (a wiped crash can orphan an announced hash for
  // good). New signers or an actual consolidation need restart the fetch.
  // Once enqueued, f+1 signers guarantee a correct server holds the batch,
  // so the head-of-line fetch may retry indefinitely.
  const bool needed = st.enqueued && !st.consolidated;
  if (!needed && st.attempt_seq >= st.give_up_after) {
    st.fetching = false;
    return;
  }
  if (ctx_.sim) {
    // Linear backoff, capped at 16 retry steps: repeated refusals/overload
    // must not amplify into a request storm against the remaining signers.
    const sim::Time backoff =
        params().request_batch_retry *
        static_cast<sim::Time>(std::min<std::uint64_t>(st.attempt_seq, 16));
    ctx_.sim->schedule_in(backoff, [this, h] {
      HashState& st = hash_state_[h];
      if (!store_.contains(h) && st.fetching) fetch_attempt(h);
    });
  }
  // Without a simulation clock (unit tests) the retry is driven by the next
  // hash-batch arrival for h (handle_hash_batch -> start_fetch).
  if (!ctx_.sim) st.fetching = false;
}

void HashchainServer::try_consolidate() {
  while (!consolidation_queue_.empty()) {
    const EpochHash h = consolidation_queue_.front();
    BatchPtr batch = store_.find(h);
    if (!batch && !params().hash_reversal) {
      // Light mode: re-pull from any peer still holding the contents (a
      // peer may have pruned after consolidating before we got here).
      if ((batch = ctx_.batch_exchange->find_anywhere(h))) store_.put(h, batch);
    }
    if (!batch) {
      // Head-of-line blocking until the fetch succeeds: keeps epoch
      // numbering identical across correct servers. With f+1 signers at
      // least one correct server can serve the batch, so this terminates.
      HashState& st = hash_state_[h];
      if (params().hash_reversal && !st.fetching) start_fetch(h);
      return;
    }
    consolidation_queue_.pop_front();
    HashState& st = hash_state_[h];
    if (st.consolidated) continue;
    st.consolidated = true;
    batch_now_available(h);  // proofs/metrics if not yet done
    consolidate_hash(h, *batch);
    if (params().lean_state && !params().hash_reversal) {
      // Light+lean runs never serve this batch again: prune it so memory
      // stays bounded at the highest sending rates (150k el/s sweeps).
      store_.erase(h);
    }
  }
}

namespace {
constexpr std::uint8_t kHashchainStateVersion = 1;

constexpr std::uint8_t kStOwnAppended = 1u << 0;
constexpr std::uint8_t kStProofsAbsorbed = 1u << 1;
constexpr std::uint8_t kStElementsMarked = 1u << 2;
constexpr std::uint8_t kStEnqueued = 1u << 3;
constexpr std::uint8_t kStConsolidated = 1u << 4;
}  // namespace

void HashchainServer::serialize_derived(codec::Writer& w) const {
  w.u8(kHashchainStateVersion);

  w.varint(store_.size());
  store_.for_each([&](const EpochHash& h, const Batch& batch,
                      const codec::Bytes& serialized) {
    w.bytes(codec::ByteView(h.data(), h.size()));
    if (serialized.empty()) {
      // Sim-path entry without retained wire bytes: serialize on the fly so
      // the on-disk form is uniform.
      w.lp_bytes(serialize_batch(batch));
    } else {
      w.lp_bytes(serialized);
    }
  });

  w.varint(hash_state_.size());
  for (const auto& [h, st] : hash_state_) {
    w.bytes(codec::ByteView(h.data(), h.size()));
    std::uint8_t flags = 0;
    if (st.own_appended) flags |= kStOwnAppended;
    if (st.proofs_absorbed) flags |= kStProofsAbsorbed;
    if (st.elements_marked) flags |= kStElementsMarked;
    if (st.enqueued) flags |= kStEnqueued;
    if (st.consolidated) flags |= kStConsolidated;
    w.u8(flags);
    w.varint(st.signers.size());
    for (crypto::ProcessId s : st.signers) w.varint(s);
    w.varint(st.fetch_candidates.size());
    for (crypto::ProcessId s : st.fetch_candidates) w.varint(s);
  }

  w.varint(consolidation_queue_.size());
  for (const EpochHash& h : consolidation_queue_) {
    w.bytes(codec::ByteView(h.data(), h.size()));
  }
}

bool HashchainServer::restore_derived(codec::Reader& r) {
  const auto version = r.u8();
  if (!version || *version != kHashchainStateVersion) return false;

  store_.clear();
  hash_state_.clear();
  consolidation_queue_.clear();

  const auto store_count = r.varint();
  if (!store_count) return false;
  for (std::uint64_t i = 0; i < *store_count; ++i) {
    EpochHash h{};
    const auto hash = r.bytes(h.size());
    const auto ser = r.lp_bytes();
    if (!hash || !ser) return false;
    std::memcpy(h.data(), hash->data(), h.size());
    if (!restore_batch(h, codec::Bytes(ser->begin(), ser->end()))) return false;
  }

  const auto state_count = r.varint();
  if (!state_count) return false;
  for (std::uint64_t i = 0; i < *state_count; ++i) {
    EpochHash h{};
    const auto hash = r.bytes(h.size());
    const auto flags = r.u8();
    const auto signer_count = r.varint();
    if (!hash || !flags || !signer_count) return false;
    std::memcpy(h.data(), hash->data(), h.size());
    HashState& st = hash_state_[h];
    st.own_appended = (*flags & kStOwnAppended) != 0;
    st.proofs_absorbed = (*flags & kStProofsAbsorbed) != 0;
    st.elements_marked = (*flags & kStElementsMarked) != 0;
    st.enqueued = (*flags & kStEnqueued) != 0;
    st.consolidated = (*flags & kStConsolidated) != 0;
    for (std::uint64_t k = 0; k < *signer_count; ++k) {
      const auto s = r.varint();
      if (!s) return false;
      st.signers.insert(static_cast<crypto::ProcessId>(*s));
    }
    const auto candidate_count = r.varint();
    if (!candidate_count) return false;
    for (std::uint64_t k = 0; k < *candidate_count; ++k) {
      const auto s = r.varint();
      if (!s) return false;
      st.fetch_candidates.push_back(static_cast<crypto::ProcessId>(*s));
    }
    // Fetch progress is volatile: in-flight attempts died with the process.
    // kick_recovery() restarts the head-of-line fetch from a fresh budget.
  }

  const auto queue_count = r.varint();
  if (!queue_count) return false;
  for (std::uint64_t i = 0; i < *queue_count; ++i) {
    EpochHash h{};
    const auto hash = r.bytes(h.size());
    if (!hash) return false;
    std::memcpy(h.data(), hash->data(), h.size());
    consolidation_queue_.push_back(h);
  }
  return true;
}

bool HashchainServer::restore_batch(const EpochHash& h, codec::Bytes&& serialized) {
  if (store_.contains(h)) return true;  // idempotent (snapshot + WAL overlap)
  auto parsed = parse_batch(serialized);
  if (!parsed) return false;
  auto owned = std::make_shared<const Batch>(std::move(*parsed));
  // Guard against a writer bug pairing the wrong bytes with a hash; the
  // calibrated-fidelity placeholder hash keys on the non-serialized uid, so
  // only the full-fidelity content hash is checkable.
  if (fidelity() == Fidelity::kFull && batch_hash(*owned, fidelity()) != h) {
    return false;
  }
  store_.put(h, std::move(owned), std::move(serialized));
  return true;
}

void HashchainServer::consolidate_hash(const EpochHash& h, const Batch& batch) {
  const HashState& st = hash_state_[h];

  std::vector<Element> g;
  if (params().hash_reversal) {
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
  if (g.empty()) return;  // proofs-only batch: no epoch (see DESIGN.md)

  cpu_acquire(params().costs.hash_cost(g_bytes) + params().costs.sign);
  EpochProof p = consolidate(g, st.consolidate_block_time);
  if (!proof_already_published(p.epoch)) collector_.add_proof(std::move(p));
}

}  // namespace setchain::core
