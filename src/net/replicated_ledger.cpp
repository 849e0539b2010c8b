#include "net/replicated_ledger.hpp"

namespace setchain::net {

namespace {
constexpr std::uint8_t kReplicatedStateVersion = 1;

CommittedChainConfig chain_config(const ReplicatedLedgerConfig& cfg) {
  CommittedChainConfig c;
  c.n = cfg.n;
  c.self = cfg.self;
  // Only the sequencer orders: replicas submit to it, it submits to no one.
  if (cfg.self != ReplicatedLedger::kSequencer) c.submit_to = {ReplicatedLedger::kSequencer};
  c.sync_interval = cfg.sync_interval;
  c.retry_interval = cfg.retry_interval;
  return c;
}
}  // namespace

ReplicatedLedger::ReplicatedLedger(ReplicatedLedgerConfig cfg, sim::Simulation& timers,
                                   ITransport& transport)
    : cfg_(cfg),
      timers_(timers),
      transport_(transport),
      chain_(chain_config(cfg), timers, transport) {}

void ReplicatedLedger::start() {
  if (started_) return;
  started_ = true;
  // The sequencer never imports blocks or forwards submits: it only seals.
  if (is_sequencer()) {
    timers_.schedule_in(cfg_.block_interval, [this] { seal_tick(); });
  } else {
    chain_.start();
  }
}

ledger::TxIdx ReplicatedLedger::append(sim::NodeId origin, ledger::Transaction tx) {
  (void)origin;  // every tx of this node funnels through its own transport
  const ledger::TxIdx ordinal = chain_.next_ordinal();
  // The pool drops content that already committed (recovery replay
  // re-appends the proofs the previous life of this process published) or
  // is already pooled. The sequencer has no submit peers, so its own work
  // simply waits in the pool next to the replicas' submits.
  std::string key = tx_dedup_key(tx);
  chain_.submit(std::move(key), std::move(tx));
  return ordinal;
}

void ReplicatedLedger::on_new_block(sim::NodeId node,
                                    std::function<void(const ledger::Block&)> cb) {
  (void)node;  // one node per process: only the local callback exists
  chain_.set_app_callback(std::move(cb));
}

void ReplicatedLedger::on_tx_submit(EndpointId from, wire::TxSubmit&& m) {
  (void)from;
  if (!is_sequencer()) return;  // misrouted: only the sequencer orders
  // Dedup by content hash: replicas retransmit submissions until committed,
  // so the same tx may arrive many times — long after it was sealed, or
  // even after a restart (the committed keys restore from the snapshot).
  std::string key = tx_dedup_key(m.tx);
  chain_.accept(std::move(key), std::move(m.tx));
}

void ReplicatedLedger::seal_tick() {
  timers_.schedule_in(cfg_.block_interval, [this] { seal_tick(); });
  const std::vector<const ledger::Transaction*> reaped = chain_.reap();
  if (reaped.empty()) return;  // create_empty_blocks=false behaviour
  const std::uint64_t height = chain_.height() + 1;
  codec::Bytes payload = wire::encode_block(height, cfg_.self, reaped);
  std::vector<ledger::Transaction> txs;
  for (const ledger::Transaction* tx : reaped) txs.push_back(*tx);

  // Commit (WAL write) BEFORE the broadcast: once a peer has seen this
  // block, a crash must not let the restarted sequencer re-seal the height
  // with different contents (that would fork the chain).
  const codec::ByteView stored =
      chain_.commit(height, cfg_.self, std::move(txs), std::move(payload));
  for (std::uint32_t peer = 0; peer < cfg_.n; ++peer) {
    if (peer == cfg_.self) continue;
    transport_.send(peer, wire::MsgType::kBlock, stored);
  }
  ++blocks_broadcast_;
}

bool ReplicatedLedger::on_block_frame(codec::ByteView payload) {
  const auto block = wire::parse_block_view(payload);
  if (!block) return false;  // malformed: drop (a Byzantine sequencer is out of model)
  ingest(block->height, payload);
  return true;
}

void ReplicatedLedger::ingest(std::uint64_t height, codec::ByteView payload) {
  if (is_sequencer()) return;              // the sequencer never imports blocks
  if (height <= chain_.height()) return;   // duplicate (sync overlap)
  buffered_.try_emplace(height, payload.begin(), payload.end());
  // Strict height order (the ledger's P10): holes wait for sync to fill.
  for (auto it = buffered_.begin();
       it != buffered_.end() && it->first == chain_.height() + 1;
       it = buffered_.erase(it)) {
    auto m = wire::parse_block(it->second);  // validated on arrival: cannot fail
    chain_.commit(m->height, m->proposer, std::move(m->txs), std::move(it->second));
  }
}

void ReplicatedLedger::on_sync_request(EndpointId from, const wire::BlockSyncRequest& m) {
  // Any node serves sync from its committed chain (crash model: peers are
  // honest, so a replica's copy is as good as the sequencer's).
  chain_.serve_sync(from, m.from_height);
}

void ReplicatedLedger::on_sync_response(const wire::BlockSyncResponse& m) {
  for (const auto& payload : m.blocks) {
    const auto block = wire::parse_block_view(payload);
    if (!block) return;
    ingest(block->height, payload);
  }
}

void ReplicatedLedger::serialize_state(codec::Writer& w) const {
  chain_.serialize_state(w, kReplicatedStateVersion);
}

bool ReplicatedLedger::restore_state(codec::Reader& r) {
  return chain_.restore_state(r, kReplicatedStateVersion);
}

bool ReplicatedLedger::restore_block(codec::Bytes payload) {
  auto m = wire::parse_block(payload);
  if (!m || m->height != chain_.height() + 1) return false;
  // Commit directly — bypassing ingest()'s sequencer guard on purpose: a
  // restarted sequencer rebuilds its own sealed chain this way. The commit
  // hook is not installed during recovery, so nothing is re-logged.
  chain_.commit(m->height, m->proposer, std::move(m->txs), std::move(payload));
  return true;
}

}  // namespace setchain::net
