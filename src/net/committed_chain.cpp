#include "net/committed_chain.hpp"

#include <algorithm>

namespace setchain::net {

namespace {
constexpr std::size_t kMaxSyncBlocks = 64;  ///< blocks per sync response
}  // namespace

CommittedChain::CommittedChain(CommittedChainConfig cfg, sim::Simulation& timers,
                               ITransport& transport)
    : cfg_(std::move(cfg)),
      timers_(timers),
      transport_(transport),
      // Own submissions are due at per-entry times; scan for them a few
      // times per base interval.
      retry_tick_(std::max<sim::Time>(cfg_.retry_interval / 8, sim::from_millis(1))) {}

void CommittedChain::start() {
  // A one-node cluster has no peer to pull from.
  if (cfg_.n > 1) timers_.schedule_in(cfg_.sync_interval, [this] { sync_tick(); });
  timers_.schedule_in(retry_tick_, [this] { retry_tick(); });
}

void CommittedChain::send_submit(const ledger::Transaction& tx) {
  const codec::Bytes payload = wire::encode_tx_submit(tx);
  for (std::uint32_t peer = 0; peer < cfg_.n; ++peer) {
    if (peer != cfg_.self) transport_.send(peer, wire::MsgType::kTxSubmit, payload);
  }
}

CommittedChain::Pooled* CommittedChain::pool(std::string key, ledger::Transaction&& tx) {
  // A tx that cannot fit a block alone could never commit; admitting it
  // would wedge every proposer that reaps it first.
  if (wire::tx_encoded_size(tx) > kMaxBlockBytes || keys_.contains(key)) return nullptr;
  const auto [it, inserted] = pooled_.try_emplace(std::move(key));
  if (!inserted) return nullptr;
  it->second = pool_.insert(pool_.end(), Pooled{std::move(tx)});
  return &*it->second;
}

bool CommittedChain::submit(std::string key, ledger::Transaction tx) {
  Pooled* p = pool(std::move(key), std::move(tx));
  if (p == nullptr) return false;
  // Retransmit until the key shows up in a committed block: the first send
  // may ride a connection that drops, and a lost submit would otherwise be
  // silently gone (receivers dedup, so the retries are safe).
  p->own = true;
  p->next_send = timers_.now() + cfg_.retry_interval;
  send_submit(p->tx);
  return true;
}

bool CommittedChain::accept(std::string key, ledger::Transaction tx) {
  return pool(std::move(key), std::move(tx)) != nullptr;
}

std::vector<const ledger::Transaction*> CommittedChain::reap() const {
  std::vector<const ledger::Transaction*> txs;
  std::uint64_t bytes = 0;
  for (const Pooled& p : pool_) {
    // Every pooled tx fits a block alone, so the first one always goes in.
    bytes += wire::tx_encoded_size(p.tx);
    if (bytes > kMaxBlockBytes) break;
    txs.push_back(&p.tx);
  }
  return txs;
}

void CommittedChain::retry_tick() {
  timers_.schedule_in(retry_tick_, [this] { retry_tick(); });
  const sim::Time now = timers_.now();
  for (Pooled& p : pool_) {
    if (!p.own || p.next_send > now) continue;
    send_submit(p.tx);
    p.attempt = std::min<std::uint32_t>(p.attempt + 1, 3);
    p.next_send = now + cfg_.retry_interval * (sim::Time{1} << p.attempt);
  }
}

codec::ByteView CommittedChain::commit(std::uint64_t height, std::uint32_t proposer,
                                       std::vector<ledger::Transaction>&& txs,
                                       codec::Bytes raw) {
  ledger::Block block;
  block.height = height;
  block.proposer = proposer;
  block.proposed_at = timers_.now();
  block.first_commit_at = timers_.now();
  for (ledger::Transaction& tx : txs) {
    // Committed keys are a pure function of the committed prefix, so every
    // node skips exactly the same duplicates.
    const auto [key, fresh] = keys_.insert(tx_dedup_key(tx));
    if (!fresh) continue;
    if (const auto it = pooled_.find(*key); it != pooled_.end()) {
      pool_.erase(it->second);
      pooled_.erase(it);
    }
    block.bytes += tx.wire_size;
    block.txs.push_back(&tx);
  }
  // Encoders leave growth slack in their buffers; this copy lives as long
  // as the chain does.
  raw.shrink_to_fit();
  const codec::Bytes& stored = raw_.emplace_back(std::move(raw));
  height_ = height;
  if (commit_hook_) commit_hook_(height, stored);
  if (app_cb_) app_cb_(block);
  return stored;
}

void CommittedChain::serve_sync(EndpointId to, std::uint64_t from_height) {
  if (from_height <= base_) return;  // compacted into a snapshot
  std::vector<codec::ByteView> views;
  std::uint64_t bytes = 0;
  for (std::uint64_t h = from_height; h <= height_ && views.size() < kMaxSyncBlocks;
       ++h) {
    const codec::Bytes& b = raw_[h - 1 - base_];
    // The response must stay under the frame cap. A single block always
    // fits alone (kMaxBlockBytes), so the requester always makes progress.
    if (!views.empty() && bytes + b.size() > wire::kMaxPayloadBytes / 2) break;
    bytes += b.size();
    views.emplace_back(b);
  }
  if (views.empty()) return;
  transport_.send(to, wire::MsgType::kBlockSyncResponse,
                  wire::encode_block_sync_response(views));
}

void CommittedChain::sync_tick() {
  timers_.schedule_in(cfg_.sync_interval, [this] { sync_tick(); });
  // Rotate across every peer: any live node serves its committed chain, so
  // catch-up keeps working while any one peer is down.
  std::uint32_t target = sync_cursor_++ % cfg_.n;
  if (target == cfg_.self) target = sync_cursor_++ % cfg_.n;
  request_sync(target);
}

void CommittedChain::request_sync(EndpointId peer) {
  transport_.send(peer, wire::MsgType::kBlockSyncRequest,
                  wire::encode_block_sync_request(wire::BlockSyncRequest{height_ + 1}));
}

void CommittedChain::serialize_state(codec::Writer& w, std::uint8_t version) const {
  w.u8(version);
  w.varint(height_);
  w.varint(appended_);
  w.varint(keys_.size());  // committed tx count: one key per committed tx
  w.varint(keys_.size());
  for (const std::string& key : keys_) {
    w.lp_bytes(codec::ByteView(reinterpret_cast<const std::uint8_t*>(key.data()),
                               key.size()));
  }
}

bool CommittedChain::restore_state(codec::Reader& r, std::uint8_t version) {
  const auto v = r.u8();
  if (!v || *v != version) return false;
  const auto height = r.varint();
  const auto appended = r.varint();
  const auto tx_count = r.varint();
  const auto key_count = r.varint();
  if (!height || !appended || !tx_count || !key_count || *tx_count != *key_count) {
    return false;
  }
  height_ = *height;
  base_ = *height;  // everything below lives only in the snapshot
  appended_ = *appended;
  keys_.clear();
  for (std::uint64_t i = 0; i < *key_count; ++i) {
    const auto key = r.lp_bytes();
    if (!key) return false;
    keys_.emplace(reinterpret_cast<const char*>(key->data()), key->size());
  }
  return true;
}

}  // namespace setchain::net
