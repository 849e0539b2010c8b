#pragma once

#include <array>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "crypto/pki.hpp"
#include "net/committed_chain.hpp"
#include "sim/simulation.hpp"

namespace setchain::net {

/// Retained proof of one equivocation: the two conflicting signed messages
/// (truncated to a bounded prefix — enough to identify, not to replay an
/// 8 MiB payload pair from memory forever). One record per masked node.
struct EquivocationEvidence {
  std::uint32_t node = 0;
  std::uint64_t height = 0;
  std::uint8_t kind = 0;  ///< 0 = conflicting votes, 1 = conflicting proposals
  codec::Bytes first;
  codec::Bytes second;
};

struct ConsensusLedgerConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;  ///< fault-tolerance target (n >= 3f+1)
  std::uint32_t self = 0;
  /// Pacing for FRESH proposals: a proposer seals a new block from its
  /// pool at most this often.
  sim::Time block_interval = sim::from_millis(150);
  /// Round liveness timeout: if a height has work pending and no block
  /// committed for this long, broadcast a round-skip (the proposer looks
  /// dead). f+1 skip wishes advance the round to the next proposer.
  sim::Time timeout_propose = sim::from_millis(3000);
  /// Base cadence for retransmitting consensus state (held proposal + own
  /// votes) and own uncommitted submissions; doubles per idle attempt,
  /// capped at 8x.
  sim::Time retry_interval = sim::from_millis(400);
  sim::Time sync_interval = sim::from_millis(400);
  /// Node keys (paper PKI), REQUIRED: proposals and votes are signed with
  /// the sender's key and verified against the claimed author's.
  const crypto::Pki* pki = nullptr;
  /// cluster_id() of this deployment: mixed into every signing transcript,
  /// so signatures never replay across deployments.
  std::uint64_t cluster = 0;
};

/// Wire-level consensus block ledger: the CometbftSim state machine
/// (src/ledger/consensus.hpp) ported onto real frames, the one ledger every
/// live node runs. It keeps the paper's f-tolerance: with any f failed nodes
/// (including every would-be proposer) epochs keep committing.
///
/// AUTHENTICATED Tendermint-lite, one active height H = applied+1 at a time.
/// Every consensus frame is signed with the author's Ed25519 key from the
/// PKI, over a domain-separated transcript that mixes the cluster id (and,
/// for votes, the frame type) — see wire.hpp transcripts. The threat model
/// (docs/ARCHITECTURE.md): up to f Byzantine servers may equivocate, forge,
/// replay, or corrupt frames; they can no longer impersonate another server
/// or split honest nodes onto conflicting commits. This class only ever
/// plays the honest part: the Byzantine node of the tests and of
/// `setchain_node --byz-consensus` is this same ledger behind a
/// ByzantineTransport (net/byzantine_transport.hpp) that rewrites its
/// outbound frames.
///
///  * proposer_for(H, r) = (H + r) % n. The round-r proposer broadcasts a
///    kProposal (block bytes ‖ proposer signature); everyone hashes the
///    FULL payload bytes (SHA-256) and votes on the hash, so ANY holder can
///    retransmit the original bytes past a crashed proposer while the
///    signature still binds the payload to the scheduled proposer
///    (proposer_for visits every id, so an in-range `proposer` field names
///    the rounds r ≡ proposer − H (mod n) that node is scheduled for; the
///    signature makes the claim unforgeable).
///  * Each node prevotes at most once per round: its locked hash if locked,
///    else the lowest proposal hash it holds (a deterministic tie-break that
///    needs no leader), else it waits. 2f+1 prevotes for one (round, hash)
///    form a polka: the node locks that hash and precommits it, once per
///    round. 2f+1 precommits for one (round, hash) commit the proposal —
///    applied when the payload is held (retransmission fetches it if not).
///  * Votes are verified in batches: structurally valid signed votes queue
///    and a zero-delay drain runs ONE Ed25519::verify_batch over everything
///    that arrived together, then applies the valid ones (invalid
///    signatures count into vote_sig_rejects() and are dropped).
///  * Equivocation: a voter whose two validly signed votes name different
///    hashes for one (height, round), or a proposer with two validly signed
///    payloads for one height, is PERMANENTLY masked — its votes and skips
///    are ignored from then on, the conflict is counted
///    (equivocations_detected()) and the conflicting evidence retained
///    (evidence()). The first recorded vote stands: honest voters vote once
///    per round, so any two 2f+1 quorums still intersect in an honest
///    voter and conflicting commits remain impossible. The masked set and
///    evidence survive restarts (state snapshot v2). Payloads from a masked
///    proposer are still usable as commit candidates (content is
///    client-submitted either way); holding is capped at 2 payloads per
///    proposer per height — lower hashes evict higher ones — so an
///    equivocator cannot balloon memory, and the lowest-hash prevote rule
///    still converges. A node missing an evicted payload that later gets a
///    commit quorum heals via certified block sync like any straggler.
///  * Locks persist across rounds within a height and are never released
///    (no unlock rule): a locked node only ever prevotes its lock. A
///    minority (<= f) stuck locked on a hash the majority abandoned heals
///    via block sync once the majority commits.
///  * Dead proposer: when work is pending and timeout_propose elapses with
///    no commit, a node broadcasts a signed kRoundSkip for its current
///    round and rebroadcasts it every further timeout. Skip wishes from f+1
///    distinct unmasked nodes (self included) advance the round.
///  * Votes one height AHEAD are buffered (one per voter per frame type)
///    and re-validated when the height advances — a node one commit behind
///    no longer eats a full timeout because its peers' precommits arrived
///    early (votes_buffered() / votes_dropped_ahead() count the traffic).
///    Proposals one height ahead are buffered too, one slot per proposer
///    (first verified payload wins, so at most n payloads): the proposer
///    signature is checked on intake, and the owned copy is held after the
///    commit without a second check (the transcript names no local state),
///    through the same masking / holding-cap / prevote path as a fresh
///    arrival. A node that commits H a moment after H+1's proposal arrived
///    prevotes at once instead of waiting out a retransmit
///    (proposals_buffered() / proposals_dropped_ahead()).
///  * Submissions gossip: append() hands the tx to CommittedChain::submit,
///    which pools it, broadcasts kTxSubmit to every peer and retransmits
///    with capped backoff until the tx's content key lands in a committed
///    block; receivers pool it (deduped against pool + committed history),
///    a fresh proposal reaps the pool, and commits prune it — P10 inclusion
///    without a distinguished node.
///  * Catch-up: commits are handed to the shared CommittedChain as CERTIFIED
///    blocks (proposal + the 2f+1 signed precommits that committed it),
///    which WAL-logs them and serves them byte-identical to rotating
///    kBlockSyncRequest pulls. A sync receiver verifies the
///    certificate (proposer signature + quorum of valid precommit
///    signatures) before applying — a Byzantine peer can no longer feed a
///    straggler a fabricated chain.
///
/// Single-threaded like everything in src/net: frames and timer ticks run on
/// the owning NodeHost's simulation loop.
class ConsensusLedger final : public ledger::IBlockLedger {
 public:
  using CommitHook = CommittedChain::CommitHook;

  ConsensusLedger(ConsensusLedgerConfig cfg, sim::Simulation& timers,
                  ITransport& transport);

  /// Arm the consensus, sync and retransmit timers. Call once, before the
  /// first frame is dispatched.
  void start();

  // IBlockLedger. `append` returns the local submission ordinal, NOT a tx
  // table index: the tx may still be in flight to the proposer that commits
  // it. Live deployments leave the metrics taps, the only consumers of the
  // index, unwired.
  ledger::TxIdx append(sim::NodeId origin, ledger::Transaction tx) override;
  void on_new_block(sim::NodeId node, std::function<void(const ledger::Block&)> cb) override;
  std::uint64_t height() const override { return chain_.height(); }

  // Frame entry points (NodeHost routes inbound ledger frames here). A
  // handler that can face a malformed or misrouted payload returns false,
  // and NodeHost counts the frame as bad.
  void on_tx_submit(EndpointId from, wire::TxSubmit&& m);
  void on_sync_request(EndpointId from, const wire::BlockSyncRequest& m);
  void on_sync_response(const wire::BlockSyncResponse& m);
  bool on_proposal(EndpointId from, codec::ByteView payload);
  bool on_prevote(EndpointId from, const wire::VoteMsg& m);
  bool on_precommit(EndpointId from, const wire::VoteMsg& m);
  bool on_round_skip(EndpointId from, const wire::RoundSkipMsg& m);

  /// Fresh proposals this node sealed and broadcast.
  std::uint64_t blocks_broadcast() const { return blocks_broadcast_; }

  // ---- durable storage (src/storage, wired by NodeHost) ----

  /// See CommittedChain::CommitHook: fires once per local commit with the
  /// certified block, the payload the WAL logs.
  void set_commit_hook(CommitHook hook) { chain_.set_commit_hook(std::move(hook)); }
  /// Serialize the committed-ledger state into a snapshot body section:
  /// applied height, submission ordinal, committed tx count, the committed
  /// content-key set that makes post-restart re-publication safe, then the
  /// masked nodes and their evidence (docs/STORAGE_FORMAT.md). Chain payload
  /// bytes are NOT included — the WAL holds the tail, the snapshot compacts
  /// everything below it.
  void serialize_state(codec::Writer& w) const;
  /// Inverse, onto a freshly constructed not-yet-started ledger. After a
  /// successful restore the ledger reports height() == the snapshot height;
  /// heights up to it are compacted away (block sync cannot serve them — a
  /// fresh node that far behind needs a snapshot transfer, future work).
  /// False on malformed input or a blob version other than 2.
  bool restore_state(codec::Reader& r);
  /// Replay one WAL block record (a certified block) during recovery. Must
  /// be the next height (height()+1); the block flows through the normal
  /// commit path including the application callback, but never back out
  /// to the wire (NodeHost installs the commit hook only after replay, so
  /// nothing is re-logged). False on parse failure, a bad certificate or a
  /// height gap.
  bool restore_block(codec::Bytes payload);

  std::uint32_t current_round() const { return cur_round_; }
  std::uint32_t proposer_for(std::uint64_t height1based, std::uint32_t round) const {
    return static_cast<std::uint32_t>((height1based + round) % cfg_.n);
  }

  // Byzantine-defence observability (tests, tooling, smoke greps).
  std::uint64_t equivocations_detected() const { return equivocations_detected_; }
  std::uint64_t vote_sig_rejects() const { return vote_sig_rejects_; }
  std::uint64_t cert_rejects() const { return cert_rejects_; }
  std::uint64_t votes_buffered() const { return votes_buffered_; }
  std::uint64_t votes_dropped_ahead() const { return votes_dropped_ahead_; }
  std::uint64_t proposals_buffered() const { return proposals_buffered_; }
  std::uint64_t proposals_dropped_ahead() const { return proposals_dropped_ahead_; }
  bool masked(std::uint32_t node) const {
    return node < masked_.size() && masked_[node];
  }
  std::uint32_t masked_count() const;
  const std::vector<EquivocationEvidence>& evidence() const { return evidence_; }
  /// Bounded-bookkeeping probe: rounds currently tracked across both vote
  /// maps (each holds exactly one fixed-size slot vector per round).
  std::size_t vote_rounds_tracked() const {
    return prevotes_.size() + precommits_.size();
  }

 private:
  struct HeldProposal {
    wire::BlockMsg block;
    codec::Bytes raw;  ///< exact payload bytes (hash preimage; retransmit unit)
  };
  /// The one recorded vote of a voter in a round. A second hash from the
  /// same voter is equivocation, not a second entry — this is what bounds
  /// the vote maps at one slot per voter per round.
  struct VoteSlot {
    bool set = false;
    wire::ProposalHash hash{};
    crypto::Ed25519::Signature sig{};
  };
  using RoundVotes = std::vector<VoteSlot>;  ///< indexed by voter, size n

  /// A structurally valid signed vote/skip awaiting batch verification.
  struct PendingVote {
    wire::MsgType type = wire::MsgType::kPrevote;
    wire::VoteMsg vote;       ///< kRoundSkip rides here with hash zeroed
    codec::Bytes transcript;  ///< signing transcript (stable for the batch)
  };

  /// Buffered votes for height active+1: per frame kind (prevote,
  /// precommit, skip — a skip rides a VoteMsg with the hash zeroed), one
  /// slot per voter; replayed through the frame path when the height
  /// advances.
  using FutureVotes = std::array<std::vector<std::optional<wire::VoteMsg>>, 3>;
  /// Buffered signed proposals for height active+1, one slot per proposer:
  /// owned copies of the verified payload bytes, held after the commit.
  using FutureProposals = std::vector<std::optional<codec::Bytes>>;

  std::uint32_t quorum() const { return 2 * cfg_.f + 1; }
  std::uint32_t skip_quorum() const { return cfg_.f + 1; }
  std::uint64_t active_height() const { return chain_.height() + 1; }

  void tick();
  void maybe_propose();
  void maybe_prevote();
  void check_polka();
  void try_commit();
  /// Hashes holding a 2f+1 quorum of one round's votes, lowest first.
  std::vector<wire::ProposalHash> quorum_hashes(const RoundVotes& rv) const;
  /// The signed vote `voter`'s slot records for `round` at the active height.
  wire::VoteMsg slot_vote(std::uint32_t round, std::uint32_t voter,
                          const VoteSlot& slot) const;
  /// This node's own vote in `round`: the self slot, the only record of it.
  std::optional<wire::VoteMsg> own_vote(const std::map<std::uint32_t, RoundVotes>& rounds,
                                        std::uint32_t round) const;
  void retransmit();
  void note_work();  ///< first work for this height arms the round deadline
  void broadcast(wire::MsgType type, codec::ByteView payload);
  void seal_and_broadcast_fresh();

  // Signing / verification.
  crypto::Ed25519::Signature sign_proposal(codec::ByteView block_bytes) const;
  crypto::Ed25519::Signature sign_vote(wire::MsgType type, const wire::VoteMsg& m) const;
  crypto::Ed25519::Signature sign_skip(const wire::RoundSkipMsg& m) const;
  /// Shared vote/skip frame entry: identity and height gating, future-height
  /// buffering, then the batch-verify queue. `type` selects the handler the
  /// verified vote is applied through.
  bool on_vote_frame(wire::MsgType type, EndpointId from, const wire::VoteMsg& m);
  /// Hold a vote for height active+1 in its voter's slot (first one wins).
  void buffer_future(wire::MsgType type, const wire::VoteMsg& m);
  void enqueue_verify(wire::MsgType type, const wire::VoteMsg& m);
  void drain_verify();
  /// Hold a proposal for the active height whose proposer signature is
  /// already checked: equivocation masking, the per-proposer holding cap,
  /// then prevote / polka / commit.
  bool hold_proposal(std::uint32_t proposer, const wire::ProposalHash& hash,
                     codec::ByteView payload);
  /// Apply one signature-checked vote (or reject it). Re-validates height /
  /// round / masking: the world may have moved while the vote sat in the
  /// verification queue.
  void apply_vote(wire::MsgType type, const wire::VoteMsg& m, bool sig_valid);
  /// Record a verified (pre)vote; returns true if newly set. Detects and
  /// masks vote equivocation.
  bool record_vote(std::map<std::uint32_t, RoundVotes>& rounds, std::uint32_t round,
                   const wire::ProposalHash& hash, std::uint32_t voter,
                   const crypto::Ed25519::Signature& sig);
  /// Permanently mask `node` for equivocation; keeps the first evidence.
  void mask_node(std::uint32_t node, std::uint8_t kind, codec::ByteView first,
                 codec::ByteView second);
  void send_precommit(std::uint32_t round, const wire::ProposalHash& hash);
  void maybe_advance_round();
  /// Verify a certified block (parse + proposer signature + precommit
  /// quorum); returns the materialized proposal on success.
  std::optional<wire::ProposalMsg> check_certified(codec::ByteView cert_payload) const;
  /// Commit a proposal at active_height() and reset per-height state.
  /// `cert_raw` is the certified-block payload that proves the commit — it
  /// is what gets WAL-logged and served to sync.
  void commit_block(wire::BlockMsg&& block, codec::Bytes cert_raw);
  void replay_buffered_votes();
  void replay_buffered_proposals();

  ConsensusLedgerConfig cfg_;
  sim::Simulation& timers_;
  ITransport& transport_;
  sim::Time tick_interval_ = 0;
  /// The tx pool (gossip-fed, pruned at commit), committed CERTIFIED
  /// blocks, sync and retransmission of own submits.
  CommittedChain chain_;

  // Per-height consensus state, reset by commit_block.
  std::map<wire::ProposalHash, HeldProposal> proposals_;  ///< begin() = lowest hash
  /// Round -> voter-indexed slots; slot cfg_.self holds this node's vote.
  std::map<std::uint32_t, RoundVotes> prevotes_;
  std::map<std::uint32_t, RoundVotes> precommits_;
  std::set<std::uint32_t> proposed_rounds_;
  /// skip_want_[i] = 1 + highest round node i asked to skip (0 = none):
  /// f+1 nodes with skip_want_ > cur_round_ advance the round.
  std::vector<std::uint32_t> skip_want_;
  std::optional<wire::ProposalHash> lock_hash_;
  std::uint32_t lock_round_ = 0;
  std::uint32_t cur_round_ = 0;
  bool work_seen_ = false;         ///< height has something to commit
  sim::Time round_deadline_ = 0;   ///< armed while work_seen_
  sim::Time next_propose_time_ = 0;  ///< fresh-seal pacing
  sim::Time retry_at_ = 0;
  std::uint32_t retry_attempt_ = 0;

  // Byzantine defences (masking persists across heights and restarts).
  std::vector<bool> masked_;
  std::vector<EquivocationEvidence> evidence_;
  std::uint64_t equivocations_detected_ = 0;
  std::uint64_t vote_sig_rejects_ = 0;
  std::uint64_t cert_rejects_ = 0;
  std::uint64_t votes_buffered_ = 0;
  std::uint64_t votes_dropped_ahead_ = 0;
  std::deque<PendingVote> pending_verify_;
  bool verify_scheduled_ = false;
  FutureVotes future_;
  std::uint64_t proposals_buffered_ = 0;
  std::uint64_t proposals_dropped_ahead_ = 0;
  FutureProposals future_proposals_;

  std::uint64_t blocks_broadcast_ = 0;  ///< fresh proposals sealed here
  bool started_ = false;
};

}  // namespace setchain::net
