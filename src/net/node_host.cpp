#include "net/node_host.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace setchain::net {

namespace {

ConsensusLedgerConfig ledger_config(const NodeHostConfig& cfg, const crypto::Pki* pki,
                                    std::uint64_t cluster) {
  ConsensusLedgerConfig lc;
  lc.n = cfg.n;
  lc.f = cfg.f;
  lc.self = cfg.id;
  lc.block_interval = cfg.block_interval;
  lc.timeout_propose = cfg.timeout_propose;
  lc.retry_interval = cfg.retry_interval;
  lc.sync_interval = cfg.sync_interval;
  lc.pki = pki;
  lc.cluster = cluster;
  return lc;
}

}  // namespace

NodeHost::NodeHost(NodeHostConfig cfg, sim::Simulation& sim, ITransport& transport,
                   storage::Storage* storage)
    : cfg_(cfg),
      sim_(sim),
      transport_(transport),
      storage_(storage),
      cluster_(cluster_id_of(cfg)),
      pki_(cfg.seed),
      ledger_(ledger_config(cfg, &pki_, cluster_), sim, transport) {
  // Shared deterministic PKI: servers 0..n-1 plus the advertised client id
  // range. Every process of the cluster derives the same keys from the seed.
  for (crypto::ProcessId p = 0; p < cfg_.n + cfg_.client_slots; ++p) {
    pki_.register_process(p);
  }

  params_.n = cfg_.n;
  params_.f = cfg_.f;
  params_.collector_limit = cfg_.collector_limit;
  params_.collector_timeout = cfg_.collector_timeout;
  params_.fidelity = core::Fidelity::kFull;  // real bytes end to end
  params_.validate = true;
  params_.hash_reversal = true;  // the transport IS the reversal service
  params_.lean_state = false;    // snapshots serve real id lists
  params_.request_batch_timeout = sim::from_millis(500);
  params_.request_batch_retry = sim::from_millis(100);

  // No simulated CPU (ctx.cpus): a live node spends real time, no CostModel.
  core::ServerContext ctx;
  ctx.sim = &sim_;
  ctx.batch_exchange = this;
  ctx.ledger = &ledger_;
  ctx.pki = &pki_;
  ctx.params = &params_;

  // The algorithm picks the server class; every server is subscribed to the
  // ledger's committed blocks the same way.
  const auto install = [this](auto server) {
    ledger_.on_new_block(
        cfg_.id, [p = server.get()](const ledger::Block& b) { p->on_new_block(b); });
    server_ = std::move(server);
  };
  switch (cfg_.algorithm) {
    case runner::Algorithm::kVanilla:
      install(std::make_unique<core::VanillaServer>(ctx, cfg_.id));
      break;
    case runner::Algorithm::kCompresschain:
      install(std::make_unique<core::CompresschainServer>(ctx, cfg_.id));
      break;
    case runner::Algorithm::kHashchain:
      install(std::make_unique<core::HashchainServer>(ctx, cfg_.id));
      break;
  }
  hashchain_ = dynamic_cast<core::HashchainServer*>(server_.get());
}

namespace {

/// Snapshot body framing (the payload Storage wraps in its checksummed
/// manifest): version, algorithm + ledger-mode sanity bytes, then the two
/// length-prefixed state sections. docs/STORAGE_FORMAT.md is normative.
constexpr std::uint8_t kSnapshotBodyVersion = 1;
/// The ledger-mode byte: 1, the consensus ledger. Data dirs of the retired
/// sequencer mode (0) are refused, not reinterpreted.
constexpr std::uint8_t kSnapshotLedgerMode = 1;
/// Past the epoch floor, a snapshot is cut once the WAL appended since the
/// last one reaches this many times that snapshot's file size (Redis's AOF
/// rewrite rule): snapshot bytes then amortize against the log they replace.
constexpr std::uint64_t kSnapshotWalGrowth = 1;

}  // namespace

bool NodeHost::recover(std::string* error) {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  if (storage_ == nullptr) return true;

  // 1. Newest valid snapshot -> ledger + server state. A fresh directory
  // has none; the node recovers from height 0.
  if (const auto body = storage_->load_snapshot()) {
    codec::Reader r(*body);
    const auto version = r.u8();
    if (!version || *version != kSnapshotBodyVersion) {
      return fail("snapshot body: unsupported version");
    }
    const auto alg = r.u8();
    const auto mode = r.u8();
    if (!alg || *alg != static_cast<std::uint8_t>(cfg_.algorithm) || !mode ||
        *mode != kSnapshotLedgerMode) {
      return fail("snapshot body: algorithm/ledger-mode mismatch with config");
    }
    const auto ledger_state = r.lp_bytes();
    const auto server_state = r.lp_bytes();
    if (!ledger_state || !server_state) {
      return fail("snapshot body: truncated state sections");
    }
    codec::Reader lr(*ledger_state);
    if (!ledger_.restore_state(lr)) {
      return fail("snapshot body: ledger state did not restore");
    }
    codec::Reader sr(*server_state);
    if (!server_->restore_state(sr)) {
      return fail("snapshot body: server state did not restore");
    }
  }

  // 2. WAL gap, batch records first: they refill the Hashchain batch store,
  // so the blocks replayed next find every batch the previous life held
  // (a fetched batch is logged after the block that announced it).
  std::vector<codec::Bytes> blocks;
  storage_->replay([&](storage::WalRecordKind kind, std::uint64_t height,
                       codec::ByteView payload) {
    (void)height;
    switch (kind) {
      case storage::WalRecordKind::kBlock:
        blocks.emplace_back(payload.begin(), payload.end());
        break;
      case storage::WalRecordKind::kBatch: {
        if (hashchain_ == nullptr || payload.size() <= sizeof(core::EpochHash)) break;
        core::EpochHash h;
        std::copy_n(payload.begin(), h.size(), h.begin());
        const auto bytes = payload.subspan(h.size());
        (void)hashchain_->restore_batch(h, codec::Bytes(bytes.begin(), bytes.end()));
        break;
      }
    }
  });

  // 3. Block records, in order, through the normal commit path: the server
  // applies each one before the next is replayed.
  for (codec::Bytes& block : blocks) {
    if (!ledger_.restore_block(std::move(block))) {
      return fail("WAL replay: a block record did not re-apply (height gap "
                  "or corrupt payload past the verified prefix)");
    }
  }

  // 4. Only NOW arm the durability hooks: everything replayed above is
  // already on disk, and re-logging it would double the WAL every restart.
  install_durability_hooks();

  // 5. Resume head-of-line consolidation: a batch lost to a torn WAL tail
  // is fetched by the live path once the transport is up.
  if (hashchain_ != nullptr) hashchain_->kick_recovery();

  last_snapshot_epoch_ = server_->epoch();
  return true;
}

void NodeHost::install_durability_hooks() {
  if (storage_ == nullptr || hooks_installed_) return;
  hooks_installed_ = true;
  ledger_.set_commit_hook([this](std::uint64_t height, codec::ByteView raw) {
    storage_->append_block(height, raw);
  });
  if (hashchain_ != nullptr) {
    // Batch record payload: 64-byte batch hash ‖ serialized batch. Stamped
    // with the CURRENT ledger height — replay keeps batch records at the
    // snapshot height (they may postdate it) and re-putting is idempotent.
    hashchain_->set_store_on_put([this](const core::EpochHash& h,
                                        const core::Batch& batch,
                                        const codec::Bytes& serialized) {
      codec::Writer w;
      w.bytes(codec::ByteView(h.data(), h.size()));
      if (!serialized.empty()) {
        w.bytes(serialized);
      } else {
        w.bytes(core::serialize_batch(batch));
      }
      storage_->append_batch(ledger_.height(), w.take());
    });
  }
}

void NodeHost::start() {
  // Safety net for hosts that skip recover() (in-memory tests attach no
  // storage; durable callers are expected to recover first).
  install_durability_hooks();
  transport_.set_handler(
      [this](EndpointId from, wire::Frame&& f) { on_frame(from, std::move(f)); });
  ledger_.start();
  if (storage_ != nullptr && cfg_.snapshot_epochs > 0) {
    sim_.schedule_in(cfg_.sync_interval, [this] { storage_tick(); });
  }
}

void NodeHost::storage_tick() {
  // Snapshot only a block-consistent cut: the server has applied every
  // committed block, so (ledger state, server state) at this height is
  // exactly what a peer replaying those blocks would compute. The epoch
  // cadence is a floor; past it, a cut waits until the log written since
  // the last snapshot is as large as that snapshot, so the snapshot bytes
  // stay within the WAL bytes plus one snapshot, not one history per tick.
  if (server_->epoch() >= last_snapshot_epoch_ + cfg_.snapshot_epochs &&
      storage_->wal_bytes_since_snapshot() >=
          kSnapshotWalGrowth * storage_->last_snapshot_bytes() &&
      server_->applied_height() == ledger_.height() &&
      ledger_.height() > storage_->last_snapshot_height()) {
    write_snapshot_now();
  }
  sim_.schedule_in(cfg_.sync_interval, [this] { storage_tick(); });
}

void NodeHost::write_snapshot_now() {
  // Two passes over the same state, with nothing between them on this
  // thread. A counting pass keeps no bytes and yields the two section
  // lengths; then the body streams through one chunk-sized buffer into the
  // file. The bytes are those of the buffered lp_bytes encoding.
  codec::Writer counter([](codec::ByteView) {});
  ledger_.serialize_state(counter);
  const std::uint64_t ledger_len = counter.size();
  server_->serialize_state(counter);
  const std::uint64_t server_len = counter.size() - ledger_len;
  const std::uint64_t body_len = 3 + codec::varint_size(ledger_len) + ledger_len +
                                 codec::varint_size(server_len) + server_len;
  const bool written = storage_->write_snapshot(
      ledger_.height(), body_len, [&](const codec::Writer::Sink& emit) {
        codec::Writer body(emit);
        body.u8(kSnapshotBodyVersion)
            .u8(static_cast<std::uint8_t>(cfg_.algorithm))
            .u8(kSnapshotLedgerMode)
            .varint(ledger_len);
        ledger_.serialize_state(body);
        body.varint(server_len);
        server_->serialize_state(body);
        body.flush();
      });
  if (written) last_snapshot_epoch_ = server_->epoch();
}

void NodeHost::on_frame(EndpointId from, wire::Frame&& frame) {
  using wire::MsgType;
  switch (frame.type) {
    // ---- server <-> server: ledger replication ----
    case MsgType::kTxSubmit: {
      if (is_client_endpoint(from)) break;  // clients use kAddRequest
      if (auto m = wire::parse_tx_submit(frame.payload)) {
        ledger_.on_tx_submit(from, std::move(*m));
        return;
      }
      break;
    }
    case MsgType::kBlock:  // retired tag (sequencer blocks): a bad frame
      break;
    case MsgType::kBlockSyncRequest: {
      if (is_client_endpoint(from)) break;
      if (auto m = wire::parse_block_sync_request(frame.payload)) {
        ledger_.on_sync_request(from, *m);
        return;
      }
      break;
    }
    case MsgType::kBlockSyncResponse: {
      if (is_client_endpoint(from)) break;
      if (auto m = wire::parse_block_sync_response(frame.payload)) {
        ledger_.on_sync_response(*m);
        return;
      }
      break;
    }

    // ---- server <-> server: consensus ordering ----
    case MsgType::kProposal: {
      if (is_client_endpoint(from)) break;
      if (ledger_.on_proposal(from, frame.payload)) return;
      break;
    }
    case MsgType::kPrevote: {
      if (is_client_endpoint(from)) break;
      if (const auto m = wire::parse_vote(frame.payload)) {
        if (ledger_.on_prevote(from, *m)) return;
      }
      break;
    }
    case MsgType::kPrecommit: {
      if (is_client_endpoint(from)) break;
      if (const auto m = wire::parse_vote(frame.payload)) {
        if (ledger_.on_precommit(from, *m)) return;
      }
      break;
    }
    case MsgType::kRoundSkip: {
      if (is_client_endpoint(from)) break;
      if (const auto m = wire::parse_round_skip(frame.payload)) {
        if (ledger_.on_round_skip(from, *m)) return;
      }
      break;
    }

    // ---- server <-> server: Hashchain batch exchange ----
    case MsgType::kBatchRequest: {
      if (hashchain_ == nullptr || is_client_endpoint(from)) break;
      const auto m = wire::parse_batch_request(frame.payload);
      // Anti-spoof: the requester field must name the sending endpoint
      // (responses are routed to it and it must be a cluster server).
      if (!m || m->requester != from || m->requester >= cfg_.n) break;
      hashchain_->serve_batch_request(static_cast<crypto::ProcessId>(m->requester),
                                      m->hash);
      return;
    }
    case MsgType::kBatchResponse: {
      if (hashchain_ == nullptr || is_client_endpoint(from)) break;
      // Zero-copy decode: the batch bytes are viewed in place in the frame
      // payload and copied exactly once, into the Bytes the store keeps.
      const auto m = wire::parse_batch_response_view(frame.payload);
      if (!m) break;
      auto parsed = core::parse_batch(m->batch);
      if (!parsed) break;  // Byzantine junk: the fetch timeout retries elsewhere
      auto batch = std::make_shared<const core::Batch>(std::move(*parsed));
      // batch IS the parse of these bytes; on_batch_response re-hashes it
      // against the requested hash (the responder is untrusted).
      hashchain_->on_batch_response(m->hash, std::move(batch),
                                    codec::Bytes(m->batch.begin(), m->batch.end()));
      return;
    }

    // ---- client RPC ----
    case MsgType::kAddRequest: {
      if (const auto m = wire::parse_add_request(frame.payload)) {
        handle_add(from, *m);
        return;
      }
      break;
    }
    case MsgType::kSnapshotRequest: {
      if (const auto m = wire::parse_snapshot_request(frame.payload)) {
        handle_snapshot(from, *m);
        return;
      }
      break;
    }
    case MsgType::kProofsRequest: {
      if (const auto m = wire::parse_proofs_request(frame.payload)) {
        handle_proofs(from, *m);
        return;
      }
      break;
    }
    case MsgType::kEpochRequest: {
      if (const auto m = wire::parse_epoch_request(frame.payload)) {
        handle_epoch(from, *m);
        return;
      }
      break;
    }

    case MsgType::kHello:  // transports consume hellos; late ones are noise
    case MsgType::kAddResponse:
    case MsgType::kSnapshotResponse:
    case MsgType::kProofsResponse:
    case MsgType::kEpochResponse:
      break;
  }
  ++bad_frames_;
}

void NodeHost::handle_add(EndpointId from, const wire::AddRequest& m) {
  ++rpcs_served_;
  wire::AddResponse resp;
  resp.req_id = m.req_id;
  resp.accepted = server_->add(m.element);
  transport_.send(from, wire::MsgType::kAddResponse, wire::encode_add_response(resp));
}

void NodeHost::handle_snapshot(EndpointId from, const wire::SnapshotRequest& m) {
  ++rpcs_served_;
  wire::SnapshotResponse resp;
  resp.req_id = m.req_id;
  const api::NodeSnapshot snap = server_->snapshot();

  // The response must fit one frame (wire::kMaxPayloadBytes). A node whose
  // state outgrew the budget serves a consistent PREFIX of its history —
  // epochs 1..k with the epoch field lowered to k — which clients already
  // handle: it is exactly what an honest-but-lagging node looks like, and
  // quorum reads only ever adopt agreed prefixes. the_set is advisory
  // (quorum logic derives its set from history) and is truncated last.
  // Worst-case per-entry costs: record header 3 varints + 64-byte hash,
  // ids/the_set entries one varint delta (<= 10 bytes) each.
  constexpr std::size_t kBudget = 6u << 20;
  constexpr std::size_t kPerRecord = 96;
  constexpr std::size_t kPerId = 10;
  std::size_t used = 0;
  resp.epoch = 0;
  if (snap.history != nullptr) {
    for (const auto& rec : *snap.history) {
      const std::size_t cost = kPerRecord + kPerId * rec.ids.size();
      if (used + cost > kBudget) break;
      used += cost;
      resp.history.push_back(rec);
      resp.epoch = rec.number;
    }
    if (resp.history.size() == snap.history->size()) resp.epoch = snap.epoch;
  }
  if (snap.the_set != nullptr) {
    resp.the_set.assign(snap.the_set->begin(), snap.the_set->end());
    std::sort(resp.the_set.begin(), resp.the_set.end());
    const std::size_t fit = (kBudget - std::min(used, kBudget)) / kPerId;
    if (resp.the_set.size() > fit) resp.the_set.resize(fit);
  }
  transport_.send(from, wire::MsgType::kSnapshotResponse,
                  wire::encode_snapshot_response(resp));
}

void NodeHost::handle_proofs(EndpointId from, const wire::ProofsRequest& m) {
  ++rpcs_served_;
  wire::ProofsResponse resp;
  resp.req_id = m.req_id;
  resp.proofs = server_->proofs_for_epoch(m.epoch);
  transport_.send(from, wire::MsgType::kProofsResponse,
                  wire::encode_proofs_response(resp));
}

void NodeHost::handle_epoch(EndpointId from, const wire::EpochRequest& m) {
  ++rpcs_served_;
  wire::EpochResponse resp;
  resp.req_id = m.req_id;
  resp.epoch = server_->epoch();
  resp.node_id = server_->node_id();
  transport_.send(from, wire::MsgType::kEpochResponse,
                  wire::encode_epoch_response(resp));
}

void NodeHost::send_request(crypto::ProcessId requester, crypto::ProcessId holder,
                            const core::EpochHash& h, std::uint64_t wire_bytes) {
  (void)wire_bytes;  // real transports account real bytes
  wire::BatchRequest m;
  m.requester = requester;
  m.hash = h;
  transport_.send(holder, wire::MsgType::kBatchRequest, wire::encode_batch_request(m));
}

void NodeHost::send_response(crypto::ProcessId responder, crypto::ProcessId requester,
                             const core::EpochHash& h, core::BatchPtr batch,
                             const codec::Bytes* serialized) {
  (void)responder;
  // Encoded straight from the store's bytes; a store entry without them
  // (never at full fidelity) is serialized on the spot.
  const codec::Bytes payload =
      serialized != nullptr
          ? wire::encode_batch_response(h, *serialized)
          : wire::encode_batch_response(h, core::serialize_batch(*batch));
  transport_.send(requester, wire::MsgType::kBatchResponse, payload);
}

void NodeHost::run_realtime(std::atomic<bool>& stop) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  // Recovery replay advances the simulation clock before this pump starts;
  // anchoring virtual time at sim_.now() (not 0) keeps post-replay timers
  // in the future instead of stalling a restarted node.
  const sim::Time v0 = sim_.now();
  const auto virtual_now = [&t0, v0] {
    return v0 + static_cast<sim::Time>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - t0)
                        .count());
  };
  while (!stop.load(std::memory_order_relaxed)) {
    sim_.run_until(virtual_now());
    // Sleep until the next scheduled event, not a fixed granularity: poll()
    // wakes early the moment a frame arrives, and a timer due in 3ms fires
    // in ~3ms instead of on a 50ms grid. The 200ms idle cap only bounds how
    // long a stop request can go unnoticed (the transport has no stop hook
    // into this loop).
    const sim::Time next = sim_.next_event_at();
    const sim::Time now_v = virtual_now();
    std::int64_t wait_ms = 200;
    if (next <= now_v) {
      wait_ms = 0;
    } else if (next != std::numeric_limits<sim::Time>::max()) {
      const sim::Time delta_ns = next - now_v;
      wait_ms = std::min<std::int64_t>(
          wait_ms, static_cast<std::int64_t>((delta_ns + 999'999) / 1'000'000));
    }
    transport_.poll(std::chrono::milliseconds(wait_ms));
  }
}

}  // namespace setchain::net
