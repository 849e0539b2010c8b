#include "net/consensus_ledger.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "crypto/sha256.hpp"

namespace setchain::net {

namespace {
constexpr std::uint8_t kConsensusStateVersion = 2;
/// Rounds a vote may run ahead of the local round before it is ignored: a
/// Byzantine voter spraying far-future rounds would otherwise allocate one
/// n-slot vector per round it names.
constexpr std::uint32_t kMaxRoundsAhead = 8;
/// Held payloads per proposer per height. An equivocator signs many
/// payloads; two is enough to prove the equivocation and keep the lowest
/// hash available as the convergence target, without unbounded memory.
constexpr std::size_t kMaxHeldPerProposer = 2;
/// Evidence keeps a prefix of each conflicting message, not the whole
/// (possibly 8 MiB) payload pair.
constexpr std::size_t kEvidencePrefixBytes = 512;
/// Vote frame kinds, indexing the ahead-of-height buffer in replay order.
constexpr std::array<wire::MsgType, 3> kVoteKinds{
    wire::MsgType::kPrevote, wire::MsgType::kPrecommit, wire::MsgType::kRoundSkip};

std::size_t kind_index(wire::MsgType type) {
  return static_cast<std::size_t>(
      std::find(kVoteKinds.begin(), kVoteKinds.end(), type) - kVoteKinds.begin());
}

codec::Bytes evidence_prefix(codec::ByteView b) {
  const std::size_t n = std::min(b.size(), kEvidencePrefixBytes);
  return codec::Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
}

CommittedChainConfig chain_config(const ConsensusLedgerConfig& cfg) {
  CommittedChainConfig c;
  c.n = cfg.n;
  c.self = cfg.self;
  c.sync_interval = cfg.sync_interval;
  c.retry_interval = cfg.retry_interval;
  return c;
}
}  // namespace

ConsensusLedger::ConsensusLedger(ConsensusLedgerConfig cfg, sim::Simulation& timers,
                                 ITransport& transport)
    : cfg_(cfg),
      timers_(timers),
      transport_(transport),
      chain_(chain_config(cfg), timers, transport) {
  assert(cfg_.pki != nullptr && "ConsensusLedger needs the cluster PKI");
  // One recurring tick drives proposing, deadlines and retransmission; keep
  // it a few times finer than the shortest timer it serves.
  tick_interval_ = std::max<sim::Time>(
      sim::from_millis(10), std::min(cfg_.block_interval, cfg_.timeout_propose) / 3);
  masked_.assign(cfg_.n, false);
  for (auto& slots : future_) slots.assign(cfg_.n, std::nullopt);
  future_proposals_.assign(cfg_.n, std::nullopt);
}

void ConsensusLedger::start() {
  if (started_) return;
  started_ = true;
  skip_want_.assign(cfg_.n, 0);
  const sim::Time now = timers_.now();
  round_deadline_ = now + cfg_.timeout_propose;
  retry_at_ = now + cfg_.retry_interval;
  timers_.schedule_in(tick_interval_, [this] { tick(); });
  chain_.start();
}

std::uint32_t ConsensusLedger::masked_count() const {
  return static_cast<std::uint32_t>(std::count(masked_.begin(), masked_.end(), true));
}

void ConsensusLedger::broadcast(wire::MsgType type, codec::ByteView payload) {
  for (std::uint32_t peer = 0; peer < cfg_.n; ++peer) {
    if (peer == cfg_.self) continue;
    transport_.send(peer, type, payload);
  }
}

// --- Signing -----------------------------------------------------------------

crypto::Ed25519::Signature ConsensusLedger::sign_proposal(
    codec::ByteView block_bytes) const {
  return cfg_.pki->sign(cfg_.self,
                        wire::proposal_transcript(cfg_.cluster, block_bytes));
}

crypto::Ed25519::Signature ConsensusLedger::sign_vote(wire::MsgType type,
                                                      const wire::VoteMsg& m) const {
  return cfg_.pki->sign(
      cfg_.self, wire::vote_transcript(cfg_.cluster, type, m.height, m.round, m.hash));
}

crypto::Ed25519::Signature ConsensusLedger::sign_skip(
    const wire::RoundSkipMsg& m) const {
  return cfg_.pki->sign(cfg_.self,
                        wire::round_skip_transcript(cfg_.cluster, m.height, m.round));
}

void ConsensusLedger::note_work() {
  if (work_seen_) return;
  work_seen_ = true;
  round_deadline_ = timers_.now() + cfg_.timeout_propose;
}

ledger::TxIdx ConsensusLedger::append(sim::NodeId origin, ledger::Transaction tx) {
  (void)origin;  // every tx of this node funnels through its own transport
  const ledger::TxIdx ordinal = chain_.next_ordinal();
  std::string key = tx_dedup_key(tx);
  // Pooled and gossiped to every peer until committed.
  if (chain_.submit(std::move(key), std::move(tx))) note_work();
  return ordinal;
}

void ConsensusLedger::on_new_block(sim::NodeId node,
                                   std::function<void(const ledger::Block&)> cb) {
  (void)node;  // one node per process: only the local callback exists
  chain_.set_app_callback(std::move(cb));
}

void ConsensusLedger::on_tx_submit(EndpointId from, wire::TxSubmit&& m) {
  (void)from;
  // The pool dedups against history AND itself: peers retransmit until
  // committed.
  std::string key = tx_dedup_key(m.tx);
  if (chain_.accept(std::move(key), std::move(m.tx))) note_work();
}

bool ConsensusLedger::on_proposal(EndpointId from, codec::ByteView payload) {
  (void)from;  // any holder may retransmit, so the sender need not be the proposer
  // Validate and dedup on a zero-copy view first: proposals are rebroadcast
  // by every holder, so most arrivals are duplicates — those are dropped
  // after a hash over the payload, without materializing a single tx.
  const auto v = wire::parse_signed_proposal_view(payload);
  if (!v) return false;
  const std::uint32_t proposer = v->block.proposer;
  if (proposer >= cfg_.n) return false;
  const std::uint64_t active = active_height();
  if (v->block.height > active + 1) {
    ++proposals_dropped_ahead_;
    return true;
  }
  if (v->block.height < active) return true;  // stale: the height already closed
  // One height of lookahead, first payload per proposer: later arrivals for
  // a filled slot are ignored unverified, so the buffer stays at n payloads.
  const bool ahead = v->block.height == active + 1;
  wire::ProposalHash hash{};
  if (ahead) {
    if (future_proposals_[proposer]) return true;
  } else {
    hash = crypto::Sha256::hash(payload);
    if (proposals_.contains(hash)) return true;
  }
  // The proposer signature binds the payload to its scheduled author. An
  // invalid signature blames the SENDER: honest holders verified the frame
  // before relaying it, so whoever handed us a forgery authored the forgery.
  if (!cfg_.pki->verify(
          proposer, wire::proposal_transcript(cfg_.cluster, v->block_bytes), v->sig)) {
    return false;
  }
  if (ahead) {
    // An owned copy: `payload` may be a view into a pooled frame buffer.
    future_proposals_[proposer].emplace(payload.begin(), payload.end());
    ++proposals_buffered_;
    return true;
  }
  return hold_proposal(proposer, hash, payload);
}

bool ConsensusLedger::hold_proposal(std::uint32_t proposer,
                                    const wire::ProposalHash& hash,
                                    codec::ByteView payload) {
  // Proposer equivocation: a second validly signed payload for this height
  // permanently masks the proposer's votes (the payloads themselves remain
  // usable commit candidates — content is client-submitted either way, and
  // refusing them would let an equivocator stall the height it proposed).
  const HeldProposal* prior = nullptr;
  std::size_t held_here = 0;
  for (const auto& [h, held] : proposals_) {
    if (held.block.proposer != proposer) continue;
    ++held_here;
    if (!prior) prior = &held;
  }
  if (prior && !masked_[proposer]) {
    mask_node(proposer, 1, prior->raw, payload);
  }
  // Holding cap: keep the LOWEST hashes per proposer (the prevote
  // tie-break's convergence targets); a lower newcomer evicts the highest
  // non-locked held payload, a higher newcomer is dropped. A node missing
  // an evicted payload that later sees its commit quorum heals via
  // certified sync like any straggler.
  if (held_here >= kMaxHeldPerProposer) {
    auto victim = proposals_.end();
    for (auto it = proposals_.rbegin(); it != proposals_.rend(); ++it) {
      if (it->second.block.proposer != proposer) continue;
      if (lock_hash_ && it->first == *lock_hash_) continue;
      victim = std::prev(it.base());
      break;
    }
    if (victim == proposals_.end() || !(hash < victim->first)) return true;
    proposals_.erase(victim);
  }

  auto m = wire::parse_proposal(payload);  // same grammar as the view: cannot fail
  if (!m) return false;
  if (proposals_.emplace(hash, HeldProposal{std::move(m->block), std::move(m->raw)})
          .second) {
    note_work();
    maybe_prevote();
    check_polka();
    try_commit();  // precommit quorum may have been waiting on this payload
  }
  return true;
}

// --- Vote intake: identity gate -> future buffer -> batch verify -> apply ----

bool ConsensusLedger::on_vote_frame(wire::MsgType type, EndpointId from,
                                    const wire::VoteMsg& m) {
  // Votes are never relayed (only proposals are), so the author must be the
  // transport sender; an impersonated vote is the SENDER's fault.
  if (m.voter >= cfg_.n || m.voter != from) return false;
  if (masked_[m.voter]) return true;  // equivocator: drop silently
  const std::uint64_t active = active_height();
  if (m.height < active) return true;  // stale: the height already closed
  if (m.height == active + 1) {
    buffer_future(type, m);
    return true;
  }
  if (m.height > active + 1) {
    ++votes_dropped_ahead_;
    return true;
  }
  if (m.round > cur_round_ + kMaxRoundsAhead) return true;  // round-spam guard
  // Exact-duplicate fast path: retransmissions skip re-verification.
  if (type == wire::MsgType::kRoundSkip) {
    if (skip_want_[m.voter] > m.round) return true;
  } else {
    const auto& rounds =
        (type == wire::MsgType::kPrevote) ? prevotes_ : precommits_;
    if (const auto it = rounds.find(m.round); it != rounds.end()) {
      const VoteSlot& slot = it->second[m.voter];
      if (slot.set && slot.hash == m.hash) return true;
    }
  }
  enqueue_verify(type, m);
  return true;
}

bool ConsensusLedger::on_prevote(EndpointId from, const wire::VoteMsg& m) {
  return on_vote_frame(wire::MsgType::kPrevote, from, m);
}

bool ConsensusLedger::on_precommit(EndpointId from, const wire::VoteMsg& m) {
  return on_vote_frame(wire::MsgType::kPrecommit, from, m);
}

bool ConsensusLedger::on_round_skip(EndpointId from, const wire::RoundSkipMsg& m) {
  wire::VoteMsg v;
  v.height = m.height;
  v.round = m.round;
  v.voter = m.voter;
  v.sig = m.sig;  // hash stays zero: skips sign no hash
  return on_vote_frame(wire::MsgType::kRoundSkip, from, v);
}

void ConsensusLedger::enqueue_verify(wire::MsgType type, const wire::VoteMsg& m) {
  PendingVote pv;
  pv.type = type;
  pv.vote = m;
  pv.transcript =
      (type == wire::MsgType::kRoundSkip)
          ? wire::round_skip_transcript(cfg_.cluster, m.height, m.round)
          : wire::vote_transcript(cfg_.cluster, type, m.height, m.round, m.hash);
  pending_verify_.push_back(std::move(pv));
  if (!verify_scheduled_) {
    // Zero-delay drain: every structurally valid vote that arrived at this
    // sim instant verifies in ONE Ed25519 batch check.
    verify_scheduled_ = true;
    timers_.schedule_in(0, [this] { drain_verify(); });
  }
}

void ConsensusLedger::drain_verify() {
  verify_scheduled_ = false;
  std::deque<PendingVote> batch;
  batch.swap(pending_verify_);
  if (batch.empty()) return;
  std::vector<crypto::Pki::SignedMessage> items;
  items.reserve(batch.size());
  for (const PendingVote& pv : batch) {
    items.push_back(crypto::Pki::SignedMessage{
        pv.vote.voter, codec::ByteView(pv.transcript), &pv.vote.sig});
  }
  const crypto::Ed25519::BatchResult result = cfg_.pki->verify_batch(items);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    apply_vote(batch[i].type, batch[i].vote, result.valid[i]);
  }
}

void ConsensusLedger::apply_vote(wire::MsgType type, const wire::VoteMsg& m,
                                 bool sig_valid) {
  if (!sig_valid) {
    ++vote_sig_rejects_;
    return;
  }
  if (masked_[m.voter]) return;  // masked while queued
  // The world may have moved while the vote sat in the verify queue.
  const std::uint64_t active = active_height();
  if (m.height != active) {
    // A commit landed mid-queue and the vote now points one height ahead
    // again: re-buffer it instead of dropping it.
    if (m.height == active + 1) buffer_future(type, m);
    return;
  }
  if (m.round > cur_round_ + kMaxRoundsAhead) return;
  switch (type) {
    case wire::MsgType::kPrevote:
      if (record_vote(prevotes_, m.round, m.hash, m.voter, m.sig)) {
        note_work();
        check_polka();
      }
      break;
    case wire::MsgType::kPrecommit:
      if (record_vote(precommits_, m.round, m.hash, m.voter, m.sig)) {
        note_work();
        try_commit();
      }
      break;
    case wire::MsgType::kRoundSkip:
      skip_want_[m.voter] = std::max(skip_want_[m.voter], m.round + 1);
      note_work();
      maybe_advance_round();
      break;
    default:
      break;
  }
}

void ConsensusLedger::buffer_future(wire::MsgType type, const wire::VoteMsg& m) {
  // One height of lookahead, one slot per voter per frame type: a node one
  // commit behind re-validates these the moment it catches up instead of
  // eating a full round timeout.
  auto& slot = future_[kind_index(type)][m.voter];
  if (slot) return;
  slot = m;
  ++votes_buffered_;
}

bool ConsensusLedger::record_vote(std::map<std::uint32_t, RoundVotes>& rounds,
                                  std::uint32_t round, const wire::ProposalHash& hash,
                                  std::uint32_t voter,
                                  const crypto::Ed25519::Signature& sig) {
  RoundVotes& rv = rounds[round];
  if (rv.empty()) rv.assign(cfg_.n, VoteSlot{});
  VoteSlot& slot = rv[voter];
  if (slot.set && slot.hash == hash) return false;  // retransmission
  if (slot.set) {
    // Two validly signed hashes from one voter for one (height, round):
    // equivocation. The FIRST recorded vote stands — honest voters vote once
    // per round, so any two 2f+1 quorums still intersect in an honest
    // once-voting node and conflicting commits stay impossible.
    const wire::VoteMsg first = slot_vote(round, voter, slot);
    wire::VoteMsg second = first;
    second.hash = hash;
    second.sig = sig;
    mask_node(voter, 0, wire::encode_vote(first), wire::encode_vote(second));
    return false;
  }
  slot.set = true;
  slot.hash = hash;
  slot.sig = sig;
  return true;
}

void ConsensusLedger::mask_node(std::uint32_t node, std::uint8_t kind,
                                codec::ByteView first, codec::ByteView second) {
  if (node >= masked_.size() || masked_[node]) return;
  masked_[node] = true;
  ++equivocations_detected_;
  EquivocationEvidence ev;
  ev.node = node;
  ev.height = active_height();
  ev.kind = kind;
  ev.first = evidence_prefix(first);
  ev.second = evidence_prefix(second);
  evidence_.push_back(std::move(ev));
}

// --- Timers ------------------------------------------------------------------

void ConsensusLedger::tick() {
  timers_.schedule_in(tick_interval_, [this] { tick(); });
  maybe_propose();
  maybe_prevote();
  check_polka();
  try_commit();

  const sim::Time now = timers_.now();

  if (work_seen_ && now >= round_deadline_) {
    // No commit despite pending work: the round proposer looks dead. Ask to
    // skip (and re-ask every further timeout — skips may be lost too).
    skip_want_[cfg_.self] = std::max(skip_want_[cfg_.self], cur_round_ + 1);
    wire::RoundSkipMsg m{active_height(), cur_round_, cfg_.self, {}};
    m.sig = sign_skip(m);
    broadcast(wire::MsgType::kRoundSkip, wire::encode_round_skip(m));
    round_deadline_ = now + cfg_.timeout_propose;
    maybe_advance_round();
  }

  if (now >= retry_at_) {
    retransmit();
    retry_attempt_ = std::min<std::uint32_t>(retry_attempt_ + 1, 3);
    retry_at_ = now + cfg_.retry_interval * (sim::Time{1} << retry_attempt_);
  }
}

void ConsensusLedger::maybe_propose() {
  if (proposer_for(active_height(), cur_round_) != cfg_.self) return;
  if (proposed_rounds_.count(cur_round_)) return;
  if (lock_hash_) {
    // Locked: only ever re-offer the locked payload (if held; otherwise the
    // holders' retransmission will deliver it first).
    const auto it = proposals_.find(*lock_hash_);
    if (it == proposals_.end()) return;
    broadcast(wire::MsgType::kProposal, it->second.raw);
  } else if (!proposals_.empty()) {
    // Re-offer the lowest held proposal rather than sealing a competing
    // one: one height should converge on one payload.
    broadcast(wire::MsgType::kProposal, proposals_.begin()->second.raw);
  } else if (!chain_.pool_empty() && timers_.now() >= next_propose_time_) {
    seal_and_broadcast_fresh();
  } else {
    return;
  }
  proposed_rounds_.insert(cur_round_);
  maybe_prevote();
}

void ConsensusLedger::seal_and_broadcast_fresh() {
  // The reaped txs STAY pooled until committed — the proposal may lose its
  // round.
  const std::vector<const ledger::Transaction*> reaped = chain_.reap();
  wire::BlockMsg block{active_height(), cfg_.self, {}};
  for (const ledger::Transaction* tx : reaped) block.txs.push_back(*tx);
  codec::Bytes block_bytes = wire::encode_block(block.height, block.proposer, reaped);
  codec::Bytes raw =
      wire::encode_signed_proposal(block_bytes, sign_proposal(block_bytes));
  broadcast(wire::MsgType::kProposal, raw);

  const wire::ProposalHash hash = crypto::Sha256::hash(raw);
  proposals_.emplace(hash, HeldProposal{std::move(block), std::move(raw)});
  ++blocks_broadcast_;
  next_propose_time_ = timers_.now() + cfg_.block_interval;
  note_work();
}

void ConsensusLedger::maybe_prevote() {
  if (own_vote(prevotes_, cur_round_)) return;
  wire::ProposalHash hash;
  if (lock_hash_) {
    hash = *lock_hash_;  // locked nodes only ever prevote their lock
  } else if (!proposals_.empty()) {
    hash = proposals_.begin()->first;  // deterministic leaderless tie-break
  } else {
    return;  // nothing to vote on yet
  }
  wire::VoteMsg m;
  m.height = active_height();
  m.round = cur_round_;
  m.voter = cfg_.self;
  m.hash = hash;
  m.sig = sign_vote(wire::MsgType::kPrevote, m);
  record_vote(prevotes_, m.round, m.hash, m.voter, m.sig);
  broadcast(wire::MsgType::kPrevote, wire::encode_vote(m));
  check_polka();
}

void ConsensusLedger::check_polka() {
  // A polka (2f+1 prevotes for one (round, hash)) locks the hash and
  // triggers our precommit for that round. Late polkas from earlier rounds
  // still count — commits are valid from any round — but we never vote in
  // rounds we have not reached.
  //
  // Collect first, act after: send_precommit may complete a commit quorum,
  // and commit_block clears prevotes_ — sending mid-iteration would leave
  // this loop walking a destroyed map.
  std::vector<std::pair<std::uint32_t, wire::ProposalHash>> to_precommit;
  for (const auto& [round, rv] : prevotes_) {
    if (round > cur_round_) break;
    for (const wire::ProposalHash& hash : quorum_hashes(rv)) {
      if (!lock_hash_ || round >= lock_round_) {
        lock_hash_ = hash;
        lock_round_ = round;
      }
      if (!own_vote(precommits_, round)) to_precommit.emplace_back(round, hash);
    }
  }
  const std::uint64_t height_before = chain_.height();
  for (const auto& [round, hash] : to_precommit) {
    // Committed: the remaining votes are for a closed height.
    if (chain_.height() != height_before) break;
    if (!own_vote(precommits_, round)) send_precommit(round, hash);
  }
}

void ConsensusLedger::send_precommit(std::uint32_t round,
                                     const wire::ProposalHash& hash) {
  wire::VoteMsg m;
  m.height = active_height();
  m.round = round;
  m.voter = cfg_.self;
  m.hash = hash;
  m.sig = sign_vote(wire::MsgType::kPrecommit, m);
  record_vote(precommits_, m.round, m.hash, m.voter, m.sig);
  broadcast(wire::MsgType::kPrecommit, wire::encode_vote(m));
  try_commit();
}

std::vector<wire::ProposalHash> ConsensusLedger::quorum_hashes(
    const RoundVotes& rv) const {
  std::map<wire::ProposalHash, std::uint32_t> tally;
  for (const VoteSlot& slot : rv) {
    if (slot.set) ++tally[slot.hash];
  }
  std::vector<wire::ProposalHash> hashes;
  for (const auto& [hash, count] : tally) {
    if (count >= quorum()) hashes.push_back(hash);
  }
  return hashes;
}

wire::VoteMsg ConsensusLedger::slot_vote(std::uint32_t round, std::uint32_t voter,
                                         const VoteSlot& slot) const {
  wire::VoteMsg m;
  m.height = active_height();
  m.round = round;
  m.voter = voter;
  m.hash = slot.hash;
  m.sig = slot.sig;
  return m;
}

std::optional<wire::VoteMsg> ConsensusLedger::own_vote(
    const std::map<std::uint32_t, RoundVotes>& rounds, std::uint32_t round) const {
  const auto it = rounds.find(round);
  if (it == rounds.end() || !it->second[cfg_.self].set) return std::nullopt;
  return slot_vote(round, cfg_.self, it->second[cfg_.self]);
}

void ConsensusLedger::try_commit() {
  for (const auto& [round, rv] : precommits_) {
    for (const wire::ProposalHash& hash : quorum_hashes(rv)) {
      const auto it = proposals_.find(hash);
      if (it == proposals_.end()) continue;  // retransmission will deliver it
      // Assemble the commit certificate from the quorum's own signatures
      // (slots are voter-indexed, so the voter ids come out ascending — the
      // strictly-increasing wire rule holds by construction).
      std::vector<wire::CommitVote> cert_votes;
      cert_votes.reserve(quorum());
      for (std::uint32_t voter = 0; voter < cfg_.n; ++voter) {
        const VoteSlot& slot = rv[voter];
        if (slot.set && slot.hash == hash) {
          cert_votes.push_back(wire::CommitVote{voter, slot.sig});
        }
      }
      // Move the payload out first: commit_block resets proposals_.
      HeldProposal held = std::move(it->second);
      codec::Bytes cert = wire::encode_certified_block(held.raw, round, cert_votes);
      commit_block(std::move(held.block), std::move(cert));
      return;
    }
  }
}

void ConsensusLedger::maybe_advance_round() {
  bool advanced = false;
  for (;;) {
    std::uint32_t wanting = 0;
    for (std::uint32_t i = 0; i < cfg_.n; ++i) {
      if (!masked_[i] && skip_want_[i] > cur_round_) ++wanting;
    }
    if (wanting < skip_quorum()) break;
    ++cur_round_;
    advanced = true;
  }
  if (!advanced) return;
  const sim::Time now = timers_.now();
  round_deadline_ = now + cfg_.timeout_propose;
  retry_attempt_ = 0;
  retry_at_ = now + cfg_.retry_interval;
  maybe_propose();
  maybe_prevote();
  check_polka();
  try_commit();
}

void ConsensusLedger::retransmit() {
  // Any holder re-offers the relevant proposal: this is what routes payload
  // bytes around a crashed proposer (votes name only the hash).
  if (!proposals_.empty()) {
    auto it = proposals_.begin();
    if (lock_hash_) {
      const auto locked = proposals_.find(*lock_hash_);
      if (locked != proposals_.end()) it = locked;
    }
    broadcast(wire::MsgType::kProposal, it->second.raw);
  }
  if (const auto v = own_vote(prevotes_, cur_round_)) {
    broadcast(wire::MsgType::kPrevote, wire::encode_vote(*v));
  }
  if (const auto v = own_vote(precommits_, cur_round_)) {
    broadcast(wire::MsgType::kPrecommit, wire::encode_vote(*v));
  }
}

void ConsensusLedger::commit_block(wire::BlockMsg&& block, codec::Bytes cert_raw) {
  // The chain WAL-logs the exact CERTIFIED payload (covers both the
  // vote-quorum and the sync-response commit paths): recovery and sync
  // receivers re-verify the certificate instead of trusting the bytes.
  // Then the application callback runs. The block's txs leave the pool.
  chain_.commit(block.height, block.proposer, std::move(block.txs), std::move(cert_raw));

  // Fresh height: all consensus state was scoped to the one we just closed.
  // The masked set and evidence are NOT reset — equivocation is forever.
  proposals_.clear();
  prevotes_.clear();
  precommits_.clear();
  proposed_rounds_.clear();
  skip_want_.assign(cfg_.n, 0);
  lock_hash_.reset();
  lock_round_ = 0;
  cur_round_ = 0;
  work_seen_ = !chain_.pool_empty();
  const sim::Time now = timers_.now();
  round_deadline_ = now + cfg_.timeout_propose;
  retry_attempt_ = 0;
  retry_at_ = now + cfg_.retry_interval;

  replay_buffered_votes();
  replay_buffered_proposals();
  maybe_propose();
  maybe_prevote();
}

void ConsensusLedger::replay_buffered_votes() {
  const FutureVotes buffered = std::move(future_);
  for (auto& slots : future_) slots.assign(cfg_.n, std::nullopt);
  // Feed buffered votes back through the normal frame path: the identity
  // gate, height checks and signature verification all re-run (the buffer
  // holds claims, not facts).
  for (std::size_t k = 0; k < kVoteKinds.size(); ++k) {
    for (const auto& v : buffered[k]) {
      if (v) on_vote_frame(kVoteKinds[k], v->voter, *v);
    }
  }
}

void ConsensusLedger::replay_buffered_proposals() {
  FutureProposals buffered = std::move(future_proposals_);
  future_proposals_.assign(cfg_.n, std::nullopt);
  // Every slot was filled while this height was one ahead, and its proposer
  // signature was verified then against a transcript that names no local
  // state: hold it without verifying again, through every other check.
  const std::uint64_t height = chain_.height();
  for (std::uint32_t proposer = 0; proposer < buffered.size(); ++proposer) {
    if (chain_.height() != height) return;  // held payload completed a commit
    const auto& raw = buffered[proposer];
    if (!raw) continue;
    const wire::ProposalHash hash = crypto::Sha256::hash(*raw);
    if (!proposals_.contains(hash)) hold_proposal(proposer, hash, *raw);
  }
}

// --- Certified-block verification (sync + recovery) --------------------------

std::optional<wire::ProposalMsg> ConsensusLedger::check_certified(
    codec::ByteView cert_payload) const {
  auto cert = wire::parse_certified_block(cert_payload);
  if (!cert) return std::nullopt;
  auto prop = wire::parse_proposal(cert->proposal);
  if (!prop) return std::nullopt;
  if (prop->block.proposer >= cfg_.n) return std::nullopt;
  if (cert->votes.size() < quorum()) return std::nullopt;
  // Voter ids are strictly increasing (wire rule), so checking the last
  // covers them all.
  if (cert->votes.back().voter >= cfg_.n) return std::nullopt;
  const wire::ProposalHash hash = crypto::Sha256::hash(cert->proposal);
  const codec::Bytes prop_transcript = wire::proposal_transcript(
      cfg_.cluster, codec::ByteView(cert->proposal).first(prop->block_bytes_len));
  const codec::Bytes vote_transcript = wire::vote_transcript(
      cfg_.cluster, wire::MsgType::kPrecommit, prop->block.height, cert->round, hash);
  std::vector<crypto::Pki::SignedMessage> items;
  items.reserve(cert->votes.size() + 1);
  items.push_back(crypto::Pki::SignedMessage{
      prop->block.proposer, codec::ByteView(prop_transcript), &prop->sig});
  for (const wire::CommitVote& v : cert->votes) {
    items.push_back(
        crypto::Pki::SignedMessage{v.voter, codec::ByteView(vote_transcript), &v.sig});
  }
  if (!cfg_.pki->verify_batch(items).all_valid) return std::nullopt;
  return prop;
}

void ConsensusLedger::on_sync_request(EndpointId from, const wire::BlockSyncRequest& m) {
  chain_.serve_sync(from, m.from_height);
}

void ConsensusLedger::on_sync_response(const wire::BlockSyncResponse& m) {
  for (const auto& payload : m.blocks) {
    // Verify the certificate, not the peer: a Byzantine server cannot feed
    // a straggler a fabricated chain. One bad entry poisons the whole reply
    // (the sender is lying or corrupt either way).
    auto prop = check_certified(payload);
    if (!prop) {
      ++cert_rejects_;
      return;
    }
    if (prop->block.height != active_height()) continue;
    commit_block(std::move(prop->block), codec::Bytes(payload.begin(), payload.end()));
  }
}

// --- Durable state -----------------------------------------------------------

void ConsensusLedger::serialize_state(codec::Writer& w) const {
  chain_.serialize_state(w, kConsensusStateVersion);
  // v2: Byzantine defences survive restarts — an equivocator stays masked.
  w.varint(equivocations_detected_);
  std::vector<std::uint32_t> masked_ids;
  for (std::uint32_t i = 0; i < masked_.size(); ++i) {
    if (masked_[i]) masked_ids.push_back(i);
  }
  w.varint(masked_ids.size());
  for (const std::uint32_t id : masked_ids) w.varint(id);
  w.varint(evidence_.size());
  for (const EquivocationEvidence& ev : evidence_) {
    w.varint(ev.node);
    w.varint(ev.height);
    w.u8(ev.kind);
    w.lp_bytes(ev.first);
    w.lp_bytes(ev.second);
  }
}

bool ConsensusLedger::restore_state(codec::Reader& r) {
  if (!chain_.restore_state(r, kConsensusStateVersion)) return false;
  const auto equivocations = r.varint();
  const auto masked_count = r.varint();
  if (!equivocations || !masked_count || *masked_count > cfg_.n) return false;
  equivocations_detected_ = *equivocations;
  masked_.assign(cfg_.n, false);
  for (std::uint64_t i = 0; i < *masked_count; ++i) {
    const auto id = r.varint();
    if (!id || *id >= cfg_.n) return false;
    masked_[*id] = true;
  }
  const auto ev_count = r.varint();
  if (!ev_count || *ev_count > cfg_.n) return false;
  evidence_.clear();
  for (std::uint64_t i = 0; i < *ev_count; ++i) {
    EquivocationEvidence ev;
    const auto node = r.varint();
    const auto height = r.varint();
    const auto kind = r.u8();
    const auto first = r.lp_bytes();
    const auto second = r.lp_bytes();
    if (!node || *node >= cfg_.n || !height || !kind || *kind > 1 || !first ||
        !second) {
      return false;
    }
    ev.node = static_cast<std::uint32_t>(*node);
    ev.height = *height;
    ev.kind = *kind;
    ev.first.assign(first->begin(), first->end());
    ev.second.assign(second->begin(), second->end());
    evidence_.push_back(std::move(ev));
  }
  return true;
}

bool ConsensusLedger::restore_block(codec::Bytes payload) {
  // The WAL record IS a certified block: re-verify the certificate on
  // replay (a corrupted or truncated ledger entry must not resurrect as
  // committed state).
  auto prop = check_certified(payload);
  if (!prop) return false;
  if (prop->block.height != active_height()) return false;
  // Reuse the sync-response commit path. The pool is empty during
  // recovery, so the propose / prevote kicks at the end of commit_block are
  // no-ops, and the commit hook is not installed yet, so nothing is
  // re-logged. Not-yet-started: skip_want_ may be empty, which assign() in
  // commit_block handles.
  if (skip_want_.size() != cfg_.n) skip_want_.assign(cfg_.n, 0);
  commit_block(std::move(prop->block), std::move(payload));
  return true;
}

}  // namespace setchain::net
