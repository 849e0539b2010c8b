#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "codec/byte_io.hpp"
#include "codec/bytes.hpp"
#include "core/element.hpp"
#include "core/epoch_record.hpp"
#include "core/proofs.hpp"
#include "crypto/ed25519.hpp"
#include "ledger/transaction.hpp"

namespace setchain::net::wire {

// ---------------------------------------------------------------------------
// Setchain wire protocol v1 — framing.
//
// NORMATIVE SPEC: docs/WIRE_FORMAT.md. Every constant, frame type, and field
// layout in this header is documented there; changes to either file must be
// mirrored in the other (the wire tests pin both directions).
//
// Frame layout (10-byte fixed header + payload):
//   magic    4 bytes  'S' 'E' 'T' 'C'
//   version  u8       kVersion (1)
//   type     u8       MsgType tag
//   length   u32le    payload byte count, <= kMaxPayloadBytes
//   payload  `length` bytes (per-type layout below)
// ---------------------------------------------------------------------------

inline constexpr std::array<std::uint8_t, 4> kMagic = {'S', 'E', 'T', 'C'};
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 10;
/// Hard payload cap: a length prefix above this is a protocol violation and
/// the stream is dead (prevents a hostile peer from forcing huge allocations).
inline constexpr std::size_t kMaxPayloadBytes = 8u << 20;  // 8 MiB

/// Frame type tags (docs/WIRE_FORMAT.md §Frame types).
enum class MsgType : std::uint8_t {
  // Connection bring-up (consumed by the transport layer, not the node).
  kHello = 0x01,

  // Client -> node RPC (request/response, client-chosen req_id correlation).
  kAddRequest = 0x10,
  kAddResponse = 0x11,
  kSnapshotRequest = 0x12,
  kSnapshotResponse = 0x13,
  kProofsRequest = 0x14,
  kProofsResponse = 0x15,
  kEpochRequest = 0x16,
  kEpochResponse = 0x17,

  // Server <-> server: ledger traffic.
  kTxSubmit = 0x20,
  /// Retired (the sequencer ledger's bare blocks). Reserved, never reused:
  /// a node counts it as a bad frame.
  kBlock = 0x21,
  kBlockSyncRequest = 0x22,
  kBlockSyncResponse = 0x23,

  // Server <-> server: consensus ordering (proposal voting).
  kProposal = 0x24,
  kPrevote = 0x25,
  kPrecommit = 0x26,
  kRoundSkip = 0x27,

  // Server <-> server: Hashchain batch exchange (Request_batch service).
  kBatchRequest = 0x30,
  kBatchResponse = 0x31,
};

bool known_type(std::uint8_t t);
const char* type_name(MsgType t);

struct Frame {
  MsgType type = MsgType::kHello;
  codec::Bytes payload;
};

/// Non-owning frame: `payload` is a view into the decoder's input buffer.
/// Lifetime is the caller's problem — see FrameReader::next_view and
/// docs/WIRE_FORMAT.md "Zero-copy views" for the exact rules.
struct FrameView {
  MsgType type = MsgType::kHello;
  codec::ByteView payload;
};

/// Encode one frame (header + payload). Payloads above kMaxPayloadBytes are
/// a programming error (assert in debug, truncated streams otherwise never
/// leave this process: the encoder refuses and returns an empty buffer).
codec::Bytes encode_frame(MsgType type, codec::ByteView payload);

/// Same encoding, but into a caller-supplied (typically pooled) buffer:
/// `out` is cleared and refilled with header + payload. Returns false (and
/// leaves `out` empty) on an oversized payload. This is the hot-path
/// encoder — it reuses `out`'s capacity instead of allocating per frame.
bool encode_frame_into(codec::Bytes& out, MsgType type, codec::ByteView payload);

enum class DecodeStatus : std::uint8_t {
  kOk,
  kNeedMore,     ///< not enough bytes yet (stream: keep reading)
  kBadMagic,     ///< stream corrupt / not a Setchain peer
  kBadVersion,   ///< incompatible protocol version
  kBadType,      ///< unknown frame type tag
  kOversized,    ///< length prefix above kMaxPayloadBytes
};
const char* decode_status_name(DecodeStatus s);

/// One-shot decode of a frame at the start of `in`. On kOk, `consumed` is
/// the total frame size (header + payload). Any other status leaves
/// `consumed` at 0; statuses other than kNeedMore mean the stream can never
/// recover (close the connection).
DecodeStatus decode_frame(codec::ByteView in, Frame& out, std::size_t& consumed);

/// Zero-copy variant: on kOk, `out.payload` views into `in` (no copy). The
/// view is only valid while the bytes backing `in` stay put.
DecodeStatus decode_frame_view(codec::ByteView in, FrameView& out,
                               std::size_t& consumed);

/// Incremental frame reassembly over a byte stream (TCP). Feed received
/// bytes; poll frames until kNeedMore. A fatal status is sticky: the reader
/// refuses further frames (the transport closes the connection).
class FrameReader {
 public:
  void feed(codec::ByteView bytes);
  /// Extract the next complete frame. kOk fills `out`; kNeedMore means feed
  /// more bytes; anything else is fatal and sticky.
  DecodeStatus next(Frame& out);
  /// Zero-copy variant: on kOk, `out.payload` views into the reader's
  /// internal buffer. The view is INVALIDATED by the next feed() call
  /// (feed may compact the buffer); it survives further next_view() calls,
  /// so a receive loop may drain every buffered frame, hand the views to
  /// parse_*_view, and only then feed more bytes.
  DecodeStatus next_view(FrameView& out);
  bool failed() const { return fatal_ != DecodeStatus::kOk; }
  DecodeStatus error() const { return fatal_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  codec::Bytes buf_;
  std::size_t pos_ = 0;
  DecodeStatus fatal_ = DecodeStatus::kOk;
};

// ---------------------------------------------------------------------------
// Payload layouts. Every parse_* is total over untrusted bytes: it returns
// nullopt on truncation, overlong varints, bad tags, out-of-range values,
// or trailing garbage (the payload must be consumed exactly).
// ---------------------------------------------------------------------------

/// Consensus wire dialect revision. Bumped when the consensus frame layouts
/// (kProposal/kPrevote/kPrecommit/kRoundSkip and the certified-block sync
/// payload) change incompatibly; mixed into cluster_id() so old consensus
/// binaries are cleanly rejected at the Hello handshake instead of
/// mis-parsing signed frames. Revision 2 = signed consensus frames (Ed25519
/// over domain-separated transcripts).
inline constexpr std::uint8_t kConsensusWireRevision = 2;

/// Identifies a cluster instance: every process derives the same value from
/// the shared (seed, n, f, algorithm) deployment parameters, so a daemon
/// refuses peers/clients configured for a different cluster. The derivation
/// also mixes the consensus ledger's mode byte (1) and
/// kConsensusWireRevision, so binaries speaking different consensus
/// dialects split into disjoint clusters.
std::uint64_t cluster_id(std::uint64_t seed, std::uint32_t n, std::uint32_t f,
                         std::uint8_t algorithm);

inline constexpr std::uint8_t kRoleServer = 0;
inline constexpr std::uint8_t kRoleClient = 1;

/// kHello: role u8, sender varint, cluster u64le.
struct Hello {
  std::uint8_t role = kRoleServer;
  std::uint64_t sender = 0;   ///< server: node id; client: PKI process id
  std::uint64_t cluster = 0;  ///< cluster_id() of the sender's configuration
};
codec::Bytes encode_hello(const Hello& h);
std::optional<Hello> parse_hello(codec::ByteView payload);

/// kAddRequest: req_id varint, element (kElementTag + element fields — the
/// same self-describing entry layout batches and ledger txs use).
struct AddRequest {
  std::uint64_t req_id = 0;
  core::Element element;
};
codec::Bytes encode_add_request(const AddRequest& m);
std::optional<AddRequest> parse_add_request(codec::ByteView payload);

/// kAddResponse: req_id varint, accepted u8 (0/1).
struct AddResponse {
  std::uint64_t req_id = 0;
  bool accepted = false;
};
codec::Bytes encode_add_response(const AddResponse& m);
std::optional<AddResponse> parse_add_response(codec::ByteView payload);

/// kSnapshotRequest / kProofsRequest / kEpochRequest share one shape:
/// req_id varint [, epoch varint for kProofsRequest].
struct SnapshotRequest {
  std::uint64_t req_id = 0;
};
codec::Bytes encode_snapshot_request(const SnapshotRequest& m);
std::optional<SnapshotRequest> parse_snapshot_request(codec::ByteView payload);

/// kSnapshotResponse: req_id varint, epoch varint, history count varint,
/// records (number varint, count varint, bytes varint, hash 64 raw, id
/// count varint, ids as sorted varint deltas), the_set count varint + ids
/// as sorted varint deltas. Delta coding: first id absolute, each later id
/// stored as (id - previous id); ids are strictly increasing.
struct SnapshotResponse {
  std::uint64_t req_id = 0;
  std::uint64_t epoch = 0;
  std::vector<core::EpochRecord> history;
  std::vector<core::ElementId> the_set;  ///< sorted ascending
};
codec::Bytes encode_snapshot_response(const SnapshotResponse& m);
std::optional<SnapshotResponse> parse_snapshot_response(codec::ByteView payload);

struct ProofsRequest {
  std::uint64_t req_id = 0;
  std::uint64_t epoch = 0;
};
codec::Bytes encode_proofs_request(const ProofsRequest& m);
std::optional<ProofsRequest> parse_proofs_request(codec::ByteView payload);

/// kProofsResponse: req_id varint, count varint, proofs (kEpochProofTag +
/// epoch-proof fields each).
struct ProofsResponse {
  std::uint64_t req_id = 0;
  std::vector<core::EpochProof> proofs;
};
codec::Bytes encode_proofs_response(const ProofsResponse& m);
std::optional<ProofsResponse> parse_proofs_response(codec::ByteView payload);

struct EpochRequest {
  std::uint64_t req_id = 0;
};
codec::Bytes encode_epoch_request(const EpochRequest& m);
std::optional<EpochRequest> parse_epoch_request(codec::ByteView payload);

/// kEpochResponse: req_id varint, epoch varint, node_id varint.
struct EpochResponse {
  std::uint64_t req_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t node_id = 0;
};
codec::Bytes encode_epoch_response(const EpochResponse& m);
std::optional<EpochResponse> parse_epoch_response(codec::ByteView payload);

/// kTxSubmit: kind u8, wire_size varint, data lp_bytes — one ledger
/// transaction gossiped to the peers that may propose it. The same (kind,
/// wire_size, data) triple encodes each transaction inside block bytes.
struct TxSubmit {
  ledger::Transaction tx;  ///< uid unset
};
codec::Bytes encode_tx_submit(const ledger::Transaction& tx);
std::optional<TxSubmit> parse_tx_submit(codec::ByteView payload);
/// Encoded size of `tx`: its kTxSubmit payload, and its share of a block.
/// Unlike `wire_size` (the sender's claim), this is what the bytes measure.
std::uint64_t tx_encoded_size(const ledger::Transaction& tx);

/// Block bytes, the unsigned prefix of a kProposal: height varint, proposer
/// varint, tx count varint, txs (kTxSubmit triple each). Heights are 1-based
/// and delivered in order at every node.
struct BlockMsg {
  std::uint64_t height = 0;
  std::uint32_t proposer = 0;
  std::vector<ledger::Transaction> txs;
};
codec::Bytes encode_block(std::uint64_t height, std::uint32_t proposer,
                          const std::vector<const ledger::Transaction*>& txs);
std::optional<BlockMsg> parse_block(codec::ByteView payload);

/// Zero-copy forms of the bulky payloads: identical validation to the
/// owning parsers (they are implemented as wrappers over these), but tx /
/// batch bytes are views into the input payload instead of copies. Callers
/// use them to validate-and-hash, or to decide a frame is a duplicate,
/// BEFORE paying for materialization.
struct TxView {
  ledger::TxKind kind = ledger::TxKind::kElement;
  std::uint32_t wire_size = 0;
  codec::ByteView data;
};
struct BlockView {
  std::uint64_t height = 0;
  std::uint32_t proposer = 0;
  std::vector<TxView> txs;
};

/// kBlockSyncRequest: from_height varint ("send me blocks >= from_height").
struct BlockSyncRequest {
  std::uint64_t from_height = 0;
};
codec::Bytes encode_block_sync_request(const BlockSyncRequest& m);
std::optional<BlockSyncRequest> parse_block_sync_request(codec::ByteView payload);

/// kBlockSyncResponse: count varint, blocks (each an lp_bytes-wrapped
/// certified block, below). Responses are capped (config) so one reply
/// never exceeds the frame limit; the requester keeps asking until caught up.
struct BlockSyncResponse {
  std::vector<codec::Bytes> blocks;  ///< certified blocks, ascending heights
};
codec::Bytes encode_block_sync_response(const std::vector<codec::ByteView>& blocks);
std::optional<BlockSyncResponse> parse_block_sync_response(codec::ByteView payload);

/// kProposal: a consensus block proposal, SIGNED by its proposer.
/// Layout: block bytes (height varint, proposer varint, tx count varint,
/// txs) followed by the proposer's 64-byte Ed25519 signature over
/// proposal_transcript(cluster, block bytes). The 32-byte
/// proposal hash that every vote carries is SHA-256 of the FULL payload
/// (block bytes ‖ signature), so ANY holder can retransmit the original
/// bytes past a crashed proposer and the hash stays stable while the
/// signature still binds the payload to its author. No round field: a
/// round-r' re-broadcast of a round-r proposal is byte-identical (prevote
/// discipline plus the signature, not the transport sender, carries the
/// safety argument — see ConsensusLedger).
struct ProposalMsg {
  BlockMsg block;
  codec::Bytes raw;                  ///< exact payload bytes (vote-hash preimage)
  std::size_t block_bytes_len = 0;   ///< prefix of `raw` the signature covers
  crypto::Ed25519::Signature sig{};  ///< proposer signature (transcript-bound)
};
std::optional<ProposalMsg> parse_proposal(codec::ByteView payload);

/// Zero-copy kProposal: validates the identical grammar to parse_proposal
/// (the owning parser is a wrapper over this one, so the two can never
/// disagree on which bytes are well-formed — an honest retransmitter of a
/// payload this parser accepted is never blamed for it downstream).
struct SignedProposalView {
  BlockView block;
  codec::ByteView block_bytes;       ///< signed prefix of the payload
  crypto::Ed25519::Signature sig{};
};
std::optional<SignedProposalView> parse_signed_proposal_view(codec::ByteView payload);

/// Assemble a kProposal payload: `block_bytes` must be encode_block()
/// output; `sig` the proposer's signature over
/// proposal_transcript(cluster, block_bytes).
codec::Bytes encode_signed_proposal(codec::ByteView block_bytes,
                                    const crypto::Ed25519::Signature& sig);

inline constexpr std::size_t kProposalHashSize = 32;
using ProposalHash = std::array<std::uint8_t, kProposalHashSize>;

/// kPrevote / kPrecommit share one layout: height varint, round varint,
/// voter varint, proposal hash 32 raw (SHA-256 of the kProposal payload),
/// voter signature 64 raw over vote_transcript(cluster, type, ...). The
/// signature binds the vote to the cluster AND the frame type, so a prevote
/// can never be replayed as a precommit (or into another deployment).
struct VoteMsg {
  std::uint64_t height = 0;
  std::uint32_t round = 0;
  std::uint32_t voter = 0;
  ProposalHash hash{};
  crypto::Ed25519::Signature sig{};
};
codec::Bytes encode_vote(const VoteMsg& m);
std::optional<VoteMsg> parse_vote(codec::ByteView payload);

/// kRoundSkip: height varint, round varint, voter varint, voter signature
/// 64 raw over round_skip_transcript(cluster, ...) — "I want to move past
/// round `round` of `height`" (the proposer looks dead from here).
struct RoundSkipMsg {
  std::uint64_t height = 0;
  std::uint32_t round = 0;
  std::uint32_t voter = 0;
  crypto::Ed25519::Signature sig{};
};
codec::Bytes encode_round_skip(const RoundSkipMsg& m);
std::optional<RoundSkipMsg> parse_round_skip(codec::ByteView payload);

// ---------------------------------------------------------------------------
// Consensus signing transcripts. Signatures never cover raw frame payloads
// directly: each is over a domain-separated transcript that mixes the
// cluster id (no cross-deployment replay) and, for votes, the frame type
// (no prevote->precommit replay). Layouts are pinned in docs/WIRE_FORMAT.md.
// ---------------------------------------------------------------------------

/// Proposer transcript: domain tag ‖ cluster u64le ‖ block bytes.
codec::Bytes proposal_transcript(std::uint64_t cluster, codec::ByteView block_bytes);

/// Vote transcript (type must be kPrevote or kPrecommit):
/// domain tag ‖ cluster u64le ‖ type u8 ‖ height u64le ‖ round u32le ‖ hash 32.
codec::Bytes vote_transcript(std::uint64_t cluster, MsgType type,
                             std::uint64_t height, std::uint32_t round,
                             const ProposalHash& hash);

/// Round-skip transcript: domain tag ‖ cluster u64le ‖ height u64le ‖ round u32le.
codec::Bytes round_skip_transcript(std::uint64_t cluster, std::uint64_t height,
                                   std::uint32_t round);

// ---------------------------------------------------------------------------
// Certified blocks: the consensus-mode block-sync / durability unit. A bare
// proposal proves nothing about commitment, so consensus-mode
// kBlockSyncResponse entries (and WAL block records) wrap the proposal in
// the precommit quorum that committed it — a receiver verifies the
// certificate instead of trusting the peer that served it.
// ---------------------------------------------------------------------------

/// One precommit of a commit certificate: the voter id and its signature
/// over vote_transcript(cluster, kPrecommit, height, round, hash).
struct CommitVote {
  std::uint32_t voter = 0;
  crypto::Ed25519::Signature sig{};
};

/// Certified block layout: proposal lp_bytes (a full signed kProposal
/// payload), round varint (the round the quorum formed in), vote count
/// varint, votes (voter varint ‖ sig 64 each, voter ids STRICTLY
/// increasing — the parser rejects duplicates, so a certificate can never
/// count one voter twice).
struct CertifiedBlockMsg {
  codec::Bytes proposal;  ///< signed kProposal payload, verbatim
  std::uint32_t round = 0;
  std::vector<CommitVote> votes;
};
codec::Bytes encode_certified_block(codec::ByteView proposal, std::uint32_t round,
                                    const std::vector<CommitVote>& votes);
std::optional<CertifiedBlockMsg> parse_certified_block(codec::ByteView payload);

/// kBatchRequest: requester varint, hash 64 raw (Request_batch(h)).
struct BatchRequest {
  std::uint64_t requester = 0;
  core::EpochHash hash{};
};
codec::Bytes encode_batch_request(const BatchRequest& m);
std::optional<BatchRequest> parse_batch_request(codec::ByteView payload);

/// kBatchResponse: hash 64 raw, batch lp_bytes (serialize_batch output;
/// the receiver re-parses and re-hashes — the responder may be Byzantine).
codec::Bytes encode_batch_response(const core::EpochHash& hash, codec::ByteView batch);

/// Zero-copy kBatchResponse: `batch` views into the payload (see TxView).
struct BatchResponseView {
  core::EpochHash hash{};
  codec::ByteView batch;
};
std::optional<BatchResponseView> parse_batch_response_view(codec::ByteView payload);

}  // namespace setchain::net::wire
