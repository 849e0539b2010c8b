#include "net/wire.hpp"

#include <string_view>

#include "sim/rng.hpp"

namespace setchain::net::wire {

// Layouts in this file are NORMATIVE-MIRRORED in docs/WIRE_FORMAT.md: keep
// the two in lockstep (the wire tests pin the documented examples).

bool known_type(std::uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kHello:
    case MsgType::kAddRequest:
    case MsgType::kAddResponse:
    case MsgType::kSnapshotRequest:
    case MsgType::kSnapshotResponse:
    case MsgType::kProofsRequest:
    case MsgType::kProofsResponse:
    case MsgType::kEpochRequest:
    case MsgType::kEpochResponse:
    case MsgType::kTxSubmit:
    case MsgType::kBlock:
    case MsgType::kBlockSyncRequest:
    case MsgType::kBlockSyncResponse:
    case MsgType::kProposal:
    case MsgType::kPrevote:
    case MsgType::kPrecommit:
    case MsgType::kRoundSkip:
    case MsgType::kBatchRequest:
    case MsgType::kBatchResponse:
      return true;
  }
  return false;
}

const char* type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kAddRequest: return "ADD_REQ";
    case MsgType::kAddResponse: return "ADD_RESP";
    case MsgType::kSnapshotRequest: return "SNAPSHOT_REQ";
    case MsgType::kSnapshotResponse: return "SNAPSHOT_RESP";
    case MsgType::kProofsRequest: return "PROOFS_REQ";
    case MsgType::kProofsResponse: return "PROOFS_RESP";
    case MsgType::kEpochRequest: return "EPOCH_REQ";
    case MsgType::kEpochResponse: return "EPOCH_RESP";
    case MsgType::kTxSubmit: return "TX_SUBMIT";
    case MsgType::kBlock: return "BLOCK";
    case MsgType::kBlockSyncRequest: return "BLOCK_SYNC_REQ";
    case MsgType::kBlockSyncResponse: return "BLOCK_SYNC_RESP";
    case MsgType::kProposal: return "PROPOSAL";
    case MsgType::kPrevote: return "PREVOTE";
    case MsgType::kPrecommit: return "PRECOMMIT";
    case MsgType::kRoundSkip: return "ROUND_SKIP";
    case MsgType::kBatchRequest: return "BATCH_REQ";
    case MsgType::kBatchResponse: return "BATCH_RESP";
  }
  return "?";
}

const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversized: return "oversized";
  }
  return "?";
}

bool encode_frame_into(codec::Bytes& out, MsgType type, codec::ByteView payload) {
  out.clear();
  if (payload.size() > kMaxPayloadBytes) return false;  // never legal to build
  out.reserve(kHeaderSize + payload.size());
  codec::append(out, codec::ByteView(kMagic.data(), kMagic.size()));
  codec::append_u8(out, kVersion);
  codec::append_u8(out, static_cast<std::uint8_t>(type));
  codec::append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  codec::append(out, payload);
  return true;
}

codec::Bytes encode_frame(MsgType type, codec::ByteView payload) {
  codec::Bytes out;
  encode_frame_into(out, type, payload);
  return out;
}

DecodeStatus decode_frame_view(codec::ByteView in, FrameView& out,
                               std::size_t& consumed) {
  consumed = 0;
  if (in.size() < kHeaderSize) return DecodeStatus::kNeedMore;
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (in[i] != kMagic[i]) return DecodeStatus::kBadMagic;
  }
  if (in[4] != kVersion) return DecodeStatus::kBadVersion;
  const std::uint8_t type = in[5];
  if (!known_type(type)) return DecodeStatus::kBadType;
  const std::uint32_t len = codec::read_u32le(in.subspan(6, 4));
  if (len > kMaxPayloadBytes) return DecodeStatus::kOversized;
  if (in.size() < kHeaderSize + len) return DecodeStatus::kNeedMore;
  out.type = static_cast<MsgType>(type);
  out.payload = in.subspan(kHeaderSize, len);
  consumed = kHeaderSize + len;
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(codec::ByteView in, Frame& out, std::size_t& consumed) {
  FrameView v;
  const DecodeStatus s = decode_frame_view(in, v, consumed);
  if (s != DecodeStatus::kOk) return s;
  out.type = v.type;
  out.payload.assign(v.payload.begin(), v.payload.end());
  return s;
}

void FrameReader::feed(codec::ByteView bytes) {
  if (fatal_ != DecodeStatus::kOk) return;
  // Compact the consumed prefix before growing (bounded memory per peer).
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  codec::append(buf_, bytes);
}

DecodeStatus FrameReader::next_view(FrameView& out) {
  if (fatal_ != DecodeStatus::kOk) return fatal_;
  std::size_t consumed = 0;
  const DecodeStatus s =
      decode_frame_view(codec::ByteView(buf_).subspan(pos_), out, consumed);
  if (s == DecodeStatus::kOk) {
    pos_ += consumed;
    return s;
  }
  if (s != DecodeStatus::kNeedMore) fatal_ = s;  // streams cannot resync
  return s;
}

DecodeStatus FrameReader::next(Frame& out) {
  FrameView v;
  const DecodeStatus s = next_view(v);
  if (s != DecodeStatus::kOk) return s;
  out.type = v.type;
  out.payload.assign(v.payload.begin(), v.payload.end());
  return s;
}

// ---------------------------------------------------------------------------
// Payloads.
// ---------------------------------------------------------------------------

std::uint64_t cluster_id(std::uint64_t seed, std::uint32_t n, std::uint32_t f,
                         std::uint8_t algorithm) {
  std::uint64_t s = seed ^ 0xC1D57E55ULL;
  std::uint64_t v = sim::splitmix64(s);
  s ^= (static_cast<std::uint64_t>(n) << 32) | (static_cast<std::uint64_t>(f) << 8) |
       algorithm;
  v ^= sim::splitmix64(s);
  // The ordering stage: the consensus ledger's mode byte (1) and the
  // dialect revision, so a consensus binary speaking an older frame layout
  // derives a different id and is refused at Hello. The retired sequencer
  // (mode 0) skipped this stage, so its ids never collide with these.
  constexpr std::uint64_t kLedgerModeConsensus = 1;
  s ^= kLedgerModeConsensus << 16;
  s ^= static_cast<std::uint64_t>(kConsensusWireRevision) << 24;
  v ^= sim::splitmix64(s);
  return v;
}

namespace {

/// Shared epilogue of every parser: the payload must be consumed exactly
/// (trailing garbage is a protocol violation, not padding).
template <typename T>
std::optional<T> finish(const codec::Reader& r, T&& value) {
  if (!r.done()) return std::nullopt;
  return std::forward<T>(value);
}

void put_sorted_ids(codec::Writer& w, const std::vector<core::ElementId>& ids) {
  w.varint(ids.size());
  core::ElementId prev = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    w.varint(i == 0 ? ids[i] : ids[i] - prev);  // strictly increasing input
    prev = ids[i];
  }
}

/// Bound a list reserve by the bytes actually present: each entry encodes
/// to at least `min_entry_bytes`, so any count above remaining/min is a lie
/// and any honest count reserves no more memory than the payload justifies
/// (a 30-byte frame claiming 8M entries must not allocate gigabytes).
std::size_t reserve_bound(const codec::Reader& r, std::uint64_t count,
                          std::size_t min_entry_bytes) {
  const std::size_t plausible = r.remaining() / std::max<std::size_t>(min_entry_bytes, 1);
  return static_cast<std::size_t>(std::min<std::uint64_t>(count, plausible));
}

/// Sorted-delta id list; rejects lists that are not strictly increasing
/// (delta 0 after the first entry would smuggle duplicates past set logic).
bool get_sorted_ids(codec::Reader& r, std::vector<core::ElementId>& out,
                    std::size_t max_count) {
  const auto count = r.varint();
  if (!count || *count > max_count) return false;
  out.clear();
  out.reserve(reserve_bound(r, *count, 1));
  core::ElementId prev = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto delta = r.varint();
    if (!delta) return false;
    if (i > 0 && *delta == 0) return false;
    const core::ElementId id = prev + *delta;
    if (i > 0 && id < prev) return false;  // wraparound
    out.push_back(id);
    prev = id;
  }
  return true;
}

/// A snapshot/proof response can legitimately carry many entries, but any
/// count beyond what fits the frame cap is hostile. Counts are sanity-
/// checked against this, and every reserve additionally goes through
/// reserve_bound() so allocation is bounded by the bytes actually present.
constexpr std::size_t kMaxListCount = kMaxPayloadBytes;

/// Minimum encoded sizes (bytes) of the variable-count entries, for
/// reserve_bound(): an epoch record is 3 varints + 64-byte hash + id list,
/// an epoch-proof entry is tag + 138 fixed bytes, a transaction is
/// kind + wire_size varint + lp_bytes.
constexpr std::size_t kMinEpochRecordBytes = 68;
constexpr std::size_t kMinProofEntryBytes = 100;
constexpr std::size_t kMinTxBytes = 3;

}  // namespace

codec::Bytes encode_hello(const Hello& h) {
  codec::Writer w;
  w.u8(h.role).varint(h.sender).u64le(h.cluster);
  return w.take();
}

std::optional<Hello> parse_hello(codec::ByteView payload) {
  codec::Reader r(payload);
  Hello h;
  const auto role = r.u8();
  const auto sender = r.varint();
  const auto cluster = r.u64le();
  if (!role || !sender || !cluster) return std::nullopt;
  if (*role != kRoleServer && *role != kRoleClient) return std::nullopt;
  h.role = *role;
  h.sender = *sender;
  h.cluster = *cluster;
  return finish(r, std::move(h));
}

codec::Bytes encode_add_request(const AddRequest& m) {
  codec::Writer w;
  w.varint(m.req_id);
  core::serialize_element(w, m.element);
  return w.take();
}

std::optional<AddRequest> parse_add_request(codec::ByteView payload) {
  codec::Reader r(payload);
  AddRequest m;
  const auto req = r.varint();
  const auto tag = r.u8();
  if (!req || !tag || *tag != core::kElementTag) return std::nullopt;
  auto e = core::parse_element(r);
  if (!e) return std::nullopt;
  m.req_id = *req;
  m.element = std::move(*e);
  return finish(r, std::move(m));
}

codec::Bytes encode_add_response(const AddResponse& m) {
  codec::Writer w;
  w.varint(m.req_id).u8(m.accepted ? 1 : 0);
  return w.take();
}

std::optional<AddResponse> parse_add_response(codec::ByteView payload) {
  codec::Reader r(payload);
  AddResponse m;
  const auto req = r.varint();
  const auto acc = r.u8();
  if (!req || !acc || *acc > 1) return std::nullopt;
  m.req_id = *req;
  m.accepted = *acc == 1;
  return finish(r, std::move(m));
}

codec::Bytes encode_snapshot_request(const SnapshotRequest& m) {
  codec::Writer w;
  w.varint(m.req_id);
  return w.take();
}

std::optional<SnapshotRequest> parse_snapshot_request(codec::ByteView payload) {
  codec::Reader r(payload);
  const auto req = r.varint();
  if (!req) return std::nullopt;
  return finish(r, SnapshotRequest{*req});
}

codec::Bytes encode_snapshot_response(const SnapshotResponse& m) {
  codec::Writer w;
  w.varint(m.req_id).varint(m.epoch).varint(m.history.size());
  for (const auto& rec : m.history) {
    w.varint(rec.number).varint(rec.count).varint(rec.bytes);
    w.bytes(codec::ByteView(rec.hash.data(), rec.hash.size()));
    put_sorted_ids(w, rec.ids);
  }
  put_sorted_ids(w, m.the_set);
  return w.take();
}

std::optional<SnapshotResponse> parse_snapshot_response(codec::ByteView payload) {
  codec::Reader r(payload);
  SnapshotResponse m;
  const auto req = r.varint();
  const auto epoch = r.varint();
  const auto hist = r.varint();
  if (!req || !epoch || !hist || *hist > kMaxListCount) return std::nullopt;
  m.req_id = *req;
  m.epoch = *epoch;
  m.history.reserve(reserve_bound(r, *hist, kMinEpochRecordBytes));
  for (std::uint64_t i = 0; i < *hist; ++i) {
    core::EpochRecord rec;
    const auto number = r.varint();
    const auto count = r.varint();
    const auto bytes = r.varint();
    if (!number || !count || !bytes) return std::nullopt;
    const auto hash = r.bytes(rec.hash.size());
    if (!hash) return std::nullopt;
    rec.number = *number;
    rec.count = *count;
    rec.bytes = *bytes;
    std::copy(hash->begin(), hash->end(), rec.hash.begin());
    if (!get_sorted_ids(r, rec.ids, kMaxListCount)) return std::nullopt;
    m.history.push_back(std::move(rec));
  }
  if (!get_sorted_ids(r, m.the_set, kMaxListCount)) return std::nullopt;
  return finish(r, std::move(m));
}

codec::Bytes encode_proofs_request(const ProofsRequest& m) {
  codec::Writer w;
  w.varint(m.req_id).varint(m.epoch);
  return w.take();
}

std::optional<ProofsRequest> parse_proofs_request(codec::ByteView payload) {
  codec::Reader r(payload);
  const auto req = r.varint();
  const auto epoch = r.varint();
  if (!req || !epoch) return std::nullopt;
  return finish(r, ProofsRequest{*req, *epoch});
}

codec::Bytes encode_proofs_response(const ProofsResponse& m) {
  codec::Writer w;
  w.varint(m.req_id).varint(m.proofs.size());
  for (const auto& p : m.proofs) core::serialize_epoch_proof(w, p);
  return w.take();
}

std::optional<ProofsResponse> parse_proofs_response(codec::ByteView payload) {
  codec::Reader r(payload);
  ProofsResponse m;
  const auto req = r.varint();
  const auto count = r.varint();
  if (!req || !count || *count > kMaxListCount) return std::nullopt;
  m.req_id = *req;
  m.proofs.reserve(reserve_bound(r, *count, kMinProofEntryBytes));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto tag = r.u8();
    if (!tag || *tag != core::kEpochProofTag) return std::nullopt;
    auto p = core::parse_epoch_proof(r);
    if (!p) return std::nullopt;
    m.proofs.push_back(std::move(*p));
  }
  return finish(r, std::move(m));
}

codec::Bytes encode_epoch_request(const EpochRequest& m) {
  codec::Writer w;
  w.varint(m.req_id);
  return w.take();
}

std::optional<EpochRequest> parse_epoch_request(codec::ByteView payload) {
  codec::Reader r(payload);
  const auto req = r.varint();
  if (!req) return std::nullopt;
  return finish(r, EpochRequest{*req});
}

codec::Bytes encode_epoch_response(const EpochResponse& m) {
  codec::Writer w;
  w.varint(m.req_id).varint(m.epoch).varint(m.node_id);
  return w.take();
}

std::optional<EpochResponse> parse_epoch_response(codec::ByteView payload) {
  codec::Reader r(payload);
  const auto req = r.varint();
  const auto epoch = r.varint();
  const auto node = r.varint();
  if (!req || !epoch || !node) return std::nullopt;
  return finish(r, EpochResponse{*req, *epoch, *node});
}

namespace {

void put_tx(codec::Writer& w, const ledger::Transaction& tx) {
  w.u8(static_cast<std::uint8_t>(tx.kind));
  w.varint(tx.wire_size);
  w.lp_bytes(tx.data);
}

std::optional<TxView> get_tx_view(codec::Reader& r) {
  const auto kind = r.u8();
  const auto wire = r.varint();
  if (!kind || !wire) return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(ledger::TxKind::kHashBatch)) return std::nullopt;
  if (*wire > kMaxPayloadBytes) return std::nullopt;
  const auto data = r.lp_bytes();
  if (!data) return std::nullopt;
  TxView tx;
  tx.kind = static_cast<ledger::TxKind>(*kind);
  tx.wire_size = static_cast<std::uint32_t>(*wire);
  tx.data = *data;
  return tx;
}

std::optional<ledger::Transaction> get_tx(codec::Reader& r) {
  const auto v = get_tx_view(r);
  if (!v) return std::nullopt;
  ledger::Transaction tx;
  tx.kind = v->kind;
  tx.wire_size = v->wire_size;
  tx.data.assign(v->data.begin(), v->data.end());
  return tx;
}

/// Block grammar of the signed kProposal prefix. Does NOT require the
/// reader to be exhausted — the caller decides what follows.
std::optional<BlockView> get_block_view(codec::Reader& r) {
  BlockView m;
  const auto height = r.varint();
  const auto proposer = r.varint();
  const auto count = r.varint();
  if (!height || *height == 0 || !proposer || !count) return std::nullopt;
  if (*proposer > 0xFFFFFFFFull || *count > kMaxListCount) return std::nullopt;
  m.height = *height;
  m.proposer = static_cast<std::uint32_t>(*proposer);
  m.txs.reserve(reserve_bound(r, *count, kMinTxBytes));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto tx = get_tx_view(r);
    if (!tx) return std::nullopt;
    m.txs.push_back(*tx);
  }
  return m;
}

}  // namespace

codec::Bytes encode_tx_submit(const ledger::Transaction& tx) {
  codec::Writer w;
  put_tx(w, tx);
  return w.take();
}

std::uint64_t tx_encoded_size(const ledger::Transaction& tx) {
  return 1 + codec::varint_size(tx.wire_size) + codec::varint_size(tx.data.size()) +
         tx.data.size();
}

std::optional<TxSubmit> parse_tx_submit(codec::ByteView payload) {
  codec::Reader r(payload);
  auto tx = get_tx(r);
  if (!tx) return std::nullopt;
  TxSubmit m;
  m.tx = std::move(*tx);
  return finish(r, std::move(m));
}

codec::Bytes encode_block(std::uint64_t height, std::uint32_t proposer,
                          const std::vector<const ledger::Transaction*>& txs) {
  codec::Writer w;
  w.varint(height).varint(proposer).varint(txs.size());
  for (const auto* tx : txs) put_tx(w, *tx);
  return w.take();
}

std::optional<BlockMsg> parse_block(codec::ByteView payload) {
  codec::Reader r(payload);
  auto v = get_block_view(r);
  if (!v || !r.done()) return std::nullopt;
  BlockMsg m;
  m.height = v->height;
  m.proposer = v->proposer;
  m.txs.reserve(v->txs.size());
  for (const auto& t : v->txs) {
    ledger::Transaction tx;
    tx.kind = t.kind;
    tx.wire_size = t.wire_size;
    tx.data.assign(t.data.begin(), t.data.end());
    m.txs.push_back(std::move(tx));
  }
  return m;
}

codec::Bytes encode_block_sync_request(const BlockSyncRequest& m) {
  codec::Writer w;
  w.varint(m.from_height);
  return w.take();
}

std::optional<BlockSyncRequest> parse_block_sync_request(codec::ByteView payload) {
  codec::Reader r(payload);
  const auto from = r.varint();
  if (!from) return std::nullopt;
  return finish(r, BlockSyncRequest{*from});
}

codec::Bytes encode_block_sync_response(const std::vector<codec::ByteView>& blocks) {
  codec::Writer w;
  w.varint(blocks.size());
  for (const auto& b : blocks) w.lp_bytes(b);
  return w.take();
}

std::optional<BlockSyncResponse> parse_block_sync_response(codec::ByteView payload) {
  codec::Reader r(payload);
  BlockSyncResponse m;
  const auto count = r.varint();
  if (!count || *count > kMaxListCount) return std::nullopt;
  m.blocks.reserve(reserve_bound(r, *count, 1));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto b = r.lp_bytes();
    if (!b) return std::nullopt;
    m.blocks.emplace_back(b->begin(), b->end());
  }
  return finish(r, std::move(m));
}

std::optional<SignedProposalView> parse_signed_proposal_view(codec::ByteView payload) {
  codec::Reader r(payload);
  auto block = get_block_view(r);
  if (!block) return std::nullopt;
  SignedProposalView m;
  m.block = std::move(*block);
  m.block_bytes = payload.first(r.position());
  const auto sig = r.bytes(m.sig.size());
  if (!sig) return std::nullopt;
  std::copy(sig->begin(), sig->end(), m.sig.begin());
  return finish(r, std::move(m));
}

std::optional<ProposalMsg> parse_proposal(codec::ByteView payload) {
  // Wrapper over the view parser — one grammar, so the owning and the
  // zero-copy parsers accept exactly the same byte strings (a retransmitter
  // of a payload the view parser accepted can never be blamed here). The
  // raw bytes are retained: they are the preimage of the proposal hash and
  // must be retransmittable verbatim.
  const auto v = parse_signed_proposal_view(payload);
  if (!v) return std::nullopt;
  ProposalMsg m;
  m.block.height = v->block.height;
  m.block.proposer = v->block.proposer;
  m.block.txs.reserve(v->block.txs.size());
  for (const auto& t : v->block.txs) {
    ledger::Transaction tx;
    tx.kind = t.kind;
    tx.wire_size = t.wire_size;
    tx.data.assign(t.data.begin(), t.data.end());
    m.block.txs.push_back(std::move(tx));
  }
  m.raw.assign(payload.begin(), payload.end());
  m.block_bytes_len = v->block_bytes.size();
  m.sig = v->sig;
  return m;
}

codec::Bytes encode_signed_proposal(codec::ByteView block_bytes,
                                    const crypto::Ed25519::Signature& sig) {
  codec::Writer w;
  w.bytes(block_bytes);
  w.bytes(codec::ByteView(sig.data(), sig.size()));
  return w.take();
}

codec::Bytes encode_vote(const VoteMsg& m) {
  codec::Writer w;
  w.varint(m.height).varint(m.round).varint(m.voter);
  w.bytes(codec::ByteView(m.hash.data(), m.hash.size()));
  w.bytes(codec::ByteView(m.sig.data(), m.sig.size()));
  return w.take();
}

std::optional<VoteMsg> parse_vote(codec::ByteView payload) {
  codec::Reader r(payload);
  VoteMsg m;
  const auto height = r.varint();
  const auto round = r.varint();
  const auto voter = r.varint();
  if (!height || *height == 0 || !round || !voter) return std::nullopt;
  if (*round > 0xFFFFFFFFull || *voter > 0xFFFFFFFFull) return std::nullopt;
  const auto hash = r.bytes(m.hash.size());
  if (!hash) return std::nullopt;
  std::copy(hash->begin(), hash->end(), m.hash.begin());
  const auto sig = r.bytes(m.sig.size());
  if (!sig) return std::nullopt;
  std::copy(sig->begin(), sig->end(), m.sig.begin());
  m.height = *height;
  m.round = static_cast<std::uint32_t>(*round);
  m.voter = static_cast<std::uint32_t>(*voter);
  return finish(r, std::move(m));
}

codec::Bytes encode_round_skip(const RoundSkipMsg& m) {
  codec::Writer w;
  w.varint(m.height).varint(m.round).varint(m.voter);
  w.bytes(codec::ByteView(m.sig.data(), m.sig.size()));
  return w.take();
}

std::optional<RoundSkipMsg> parse_round_skip(codec::ByteView payload) {
  codec::Reader r(payload);
  RoundSkipMsg m;
  const auto height = r.varint();
  const auto round = r.varint();
  const auto voter = r.varint();
  if (!height || *height == 0 || !round || !voter) return std::nullopt;
  if (*round > 0xFFFFFFFFull || *voter > 0xFFFFFFFFull) return std::nullopt;
  const auto sig = r.bytes(m.sig.size());
  if (!sig) return std::nullopt;
  std::copy(sig->begin(), sig->end(), m.sig.begin());
  m.height = *height;
  m.round = static_cast<std::uint32_t>(*round);
  m.voter = static_cast<std::uint32_t>(*voter);
  return finish(r, std::move(m));
}

namespace {

// Transcript domain tags. Distinct per message family; the trailing
// revision digit moves with kConsensusWireRevision so a transcript from an
// older dialect never verifies under a newer one.
constexpr std::string_view kProposalDomain = "SETC/consensus/proposal/2";
constexpr std::string_view kVoteDomain = "SETC/consensus/vote/2";
constexpr std::string_view kSkipDomain = "SETC/consensus/skip/2";

void put_domain(codec::Writer& w, std::string_view d) {
  w.bytes(codec::ByteView(reinterpret_cast<const std::uint8_t*>(d.data()), d.size()));
}

/// Smallest certificate vote entry: voter varint (>=1 byte) + 64-byte sig.
constexpr std::size_t kMinCommitVoteBytes = 65;

}  // namespace

codec::Bytes proposal_transcript(std::uint64_t cluster, codec::ByteView block_bytes) {
  codec::Writer w;
  put_domain(w, kProposalDomain);
  w.u64le(cluster);
  w.bytes(block_bytes);
  return w.take();
}

codec::Bytes vote_transcript(std::uint64_t cluster, MsgType type,
                             std::uint64_t height, std::uint32_t round,
                             const ProposalHash& hash) {
  codec::Writer w;
  put_domain(w, kVoteDomain);
  w.u64le(cluster);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64le(height).u32le(round);
  w.bytes(codec::ByteView(hash.data(), hash.size()));
  return w.take();
}

codec::Bytes round_skip_transcript(std::uint64_t cluster, std::uint64_t height,
                                   std::uint32_t round) {
  codec::Writer w;
  put_domain(w, kSkipDomain);
  w.u64le(cluster);
  w.u64le(height).u32le(round);
  return w.take();
}

codec::Bytes encode_certified_block(codec::ByteView proposal, std::uint32_t round,
                                    const std::vector<CommitVote>& votes) {
  codec::Writer w;
  w.lp_bytes(proposal);
  w.varint(round);
  w.varint(votes.size());
  for (const auto& v : votes) {
    w.varint(v.voter);
    w.bytes(codec::ByteView(v.sig.data(), v.sig.size()));
  }
  return w.take();
}

std::optional<CertifiedBlockMsg> parse_certified_block(codec::ByteView payload) {
  codec::Reader r(payload);
  CertifiedBlockMsg m;
  const auto proposal = r.lp_bytes();
  if (!proposal || proposal->empty()) return std::nullopt;
  m.proposal.assign(proposal->begin(), proposal->end());
  const auto round = r.varint();
  const auto count = r.varint();
  if (!round || *round > 0xFFFFFFFFull || !count || *count > kMaxListCount) {
    return std::nullopt;
  }
  m.round = static_cast<std::uint32_t>(*round);
  m.votes.reserve(reserve_bound(r, *count, kMinCommitVoteBytes));
  for (std::uint64_t i = 0; i < *count; ++i) {
    CommitVote v;
    const auto voter = r.varint();
    if (!voter || *voter > 0xFFFFFFFFull) return std::nullopt;
    v.voter = static_cast<std::uint32_t>(*voter);
    // Strictly increasing voter ids: no voter can be counted twice toward
    // the quorum, and verifiers get the entries pre-sorted.
    if (!m.votes.empty() && v.voter <= m.votes.back().voter) return std::nullopt;
    const auto sig = r.bytes(v.sig.size());
    if (!sig) return std::nullopt;
    std::copy(sig->begin(), sig->end(), v.sig.begin());
    m.votes.push_back(v);
  }
  return finish(r, std::move(m));
}

codec::Bytes encode_batch_request(const BatchRequest& m) {
  codec::Writer w;
  w.varint(m.requester);
  w.bytes(codec::ByteView(m.hash.data(), m.hash.size()));
  return w.take();
}

std::optional<BatchRequest> parse_batch_request(codec::ByteView payload) {
  codec::Reader r(payload);
  BatchRequest m;
  const auto requester = r.varint();
  if (!requester) return std::nullopt;
  const auto hash = r.bytes(m.hash.size());
  if (!hash) return std::nullopt;
  m.requester = *requester;
  std::copy(hash->begin(), hash->end(), m.hash.begin());
  return finish(r, std::move(m));
}

codec::Bytes encode_batch_response(const core::EpochHash& hash, codec::ByteView batch) {
  codec::Writer w;
  w.bytes(codec::ByteView(hash.data(), hash.size()));
  w.lp_bytes(batch);
  return w.take();
}

std::optional<BatchResponseView> parse_batch_response_view(codec::ByteView payload) {
  codec::Reader r(payload);
  BatchResponseView m;
  const auto hash = r.bytes(m.hash.size());
  if (!hash) return std::nullopt;
  std::copy(hash->begin(), hash->end(), m.hash.begin());
  const auto batch = r.lp_bytes();
  if (!batch) return std::nullopt;
  m.batch = *batch;
  return finish(r, std::move(m));
}

}  // namespace setchain::net::wire
