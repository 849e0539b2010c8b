#include "ledger/consensus.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace setchain::ledger {

namespace {
constexpr std::uint32_t kVoteSize = 150;          ///< prevote/precommit wire bytes
constexpr std::uint32_t kProposalOverhead = 200;  ///< block header bytes
}  // namespace

CometbftSim::CometbftSim(sim::Simulation& sim, sim::Network& net,
                         std::vector<sim::BusyResource>& cpus, ConsensusConfig cfg,
                         LedgerHooks hooks)
    : sim_(sim),
      net_(net),
      cpus_(cpus),
      cfg_(cfg),
      hooks_(std::move(hooks)),
      quorum_(2 * ((cfg.n - 1) / 3) + 1),
      mempools_(cfg.n, Mempool(cfg.mempool)),
      app_cbs_(cfg.n),
      byzantine_(cfg.n),
      next_deliver_(cfg.n, 1),
      deliver_buffer_(cfg.n) {
  assert(cpus_.size() >= cfg_.n);
}

void CometbftSim::set_byzantine(sim::NodeId node, LedgerByzantineConfig cfg) {
  byzantine_.at(node) = std::move(cfg);
}

void CometbftSim::on_new_block(sim::NodeId node, std::function<void(const Block&)> cb) {
  app_cbs_.at(node) = std::move(cb);
}

void CometbftSim::start() {
  if (started_) return;
  started_ = true;
  last_scheduled_height_ = next_height_;
  schedule_propose(next_height_, 0, sim_.now() + cfg_.block_interval);
}

TxIdx CometbftSim::append(sim::NodeId origin, Transaction tx) {
  const TxIdx idx = table_.add(std::move(tx));
  const Transaction& stored = table_.get(idx);

  // CheckTx at the origin node (CPU-modeled), then mempool insert + gossip.
  const sim::Time cost = hooks_.check_tx_cost ? hooks_.check_tx_cost(stored) : 0;
  const sim::Time done = cpus_[origin].acquire(sim_.now(), cost);
  sim_.schedule_at(done, [this, origin, idx] {
    const Transaction& checked = table_.get(idx);
    if (hooks_.check_tx && !hooks_.check_tx(checked)) return;  // rejected locally
    accept_into_mempool(origin, idx);
    // Disseminate to every peer (see class comment on the gossip model).
    gossip_tx(origin, idx);
  });
  return idx;
}

void CometbftSim::gossip_tx(sim::NodeId origin, TxIdx idx) {
  const Transaction& tx = table_.get(idx);
  for (sim::NodeId peer = 0; peer < cfg_.n; ++peer) {
    if (peer == origin) continue;
    if (mempools_[peer].seen(idx)) continue;  // re-gossip: peer already has it
    if (net_.node_down(peer)) continue;  // doomed send; re-gossip covers heals
    net_.send(origin, peer, tx.wire_size, [this, peer, idx] {
      const Transaction& received = table_.get(idx);
      const sim::Time peer_cost =
          hooks_.check_tx_cost ? hooks_.check_tx_cost(received) : 0;
      const sim::Time peer_done = cpus_[peer].acquire(sim_.now(), peer_cost);
      sim_.schedule_at(peer_done, [this, peer, idx] {
        const Transaction& accepted = table_.get(idx);
        if (hooks_.check_tx && !hooks_.check_tx(accepted)) return;
        accept_into_mempool(peer, idx);
      });
    });
  }
}

void CometbftSim::accept_into_mempool(sim::NodeId node, TxIdx idx) {
  if (!mempools_[node].add(idx, table_.get(idx))) return;
  if (hooks_.on_mempool_add) hooks_.on_mempool_add(node, idx, sim_.now());
  // A waiting proposer (empty mempool, create_empty_blocks=false) wakes up
  // as soon as the first transaction lands.
  if (waiting_for_txs_ && node == proposer_for(next_height_, current_round_)) {
    waiting_for_txs_ = false;
    schedule_propose(next_height_, current_round_,
                     std::max(sim_.now(), earliest_propose_));
  } else if (waiting_for_txs_) {
    // Landed at a non-proposer while the proposer starves — on a lossy
    // network the gossip hop to the proposer may have been lost, so make
    // sure the re-gossip chain is alive to hand it over.
    schedule_regossip();
  }
}

void CometbftSim::schedule_propose(std::uint64_t height, std::uint32_t round,
                                   sim::Time at) {
  earliest_propose_ = at;
  sim_.schedule_at(at, [this, height, round] { try_propose(height, round); });
}

CometbftSim::HeightState& CometbftSim::height_state(std::uint64_t height) {
  auto it = inflight_.find(height);
  if (it == inflight_.end()) {
    HeightState st;
    st.has_proposal.assign(cfg_.n, 0);
    st.prevotes.assign(cfg_.n, 0);
    st.precommits.assign(cfg_.n, 0);
    st.prevote_from.assign(std::size_t{cfg_.n} * cfg_.n, 0);
    st.precommit_from.assign(std::size_t{cfg_.n} * cfg_.n, 0);
    st.sent_prevote.assign(cfg_.n, 0);
    st.sent_precommit.assign(cfg_.n, 0);
    st.committed.assign(cfg_.n, 0);
    it = inflight_.emplace(height, std::move(st)).first;
  }
  return it->second;
}

void CometbftSim::try_propose(std::uint64_t height, std::uint32_t round) {
  if (height != next_height_ || round != current_round_) return;  // stale event
  const sim::NodeId proposer = proposer_for(height, round);

  if (byzantine_[proposer].silent_proposer || net_.node_down(proposer)) {
    // Correct nodes time out waiting for the proposal and move to the next
    // round with the next proposer (Tendermint round skip). A crashed
    // proposer looks exactly like a silent one from the outside.
    current_round_ = round + 1;
    schedule_propose(height, current_round_, sim_.now() + cfg_.timeout_propose);
    return;
  }

  std::vector<TxIdx> txs =
      mempools_[proposer].reap(table_, cfg_.max_block_bytes, &proposed_);
  // No empty blocks: CometBFT's create_empty_blocks=false default.
  if (txs.empty() && byzantine_[proposer].garbage_txs_per_block == 0) {
    waiting_for_txs_ = true;  // woken by accept_into_mempool
    // On a lossy network the wake-up gossip may itself be lost (or the
    // transactions may be stranded in other nodes' mempools): keep nudging,
    // starting each waiting episode at the base cadence.
    regossip_attempt_ = 0;
    schedule_regossip();
    return;
  }

  // Byzantine proposers may slip arbitrary transactions into their own
  // blocks without CheckTx (the application layer must survive this).
  std::uint64_t bytes = kProposalOverhead;
  for (std::uint32_t i = 0; i < byzantine_[proposer].garbage_txs_per_block; ++i) {
    if (!byzantine_[proposer].make_garbage) break;
    txs.push_back(table_.add(byzantine_[proposer].make_garbage()));
  }
  auto block = std::make_shared<Block>();
  block->height = height;
  block->proposer = proposer;
  block->proposed_at = sim_.now();
  block->txs.reserve(txs.size());
  for (const TxIdx idx : txs) {
    const Transaction& tx = table_.get(idx);
    bytes += tx.wire_size;
    block->txs.push_back(&tx);
    if (idx >= proposed_.size()) proposed_.resize(idx + 1, false);
    proposed_[idx] = true;
  }
  block->bytes = bytes;

  HeightState& st = height_state(height);
  st.block = block;

  // The next height is scheduled when its proposer commits this block (see
  // commit_at): cadence = max(block_interval, consensus latency +
  // timeout_commit), like CometBFT.
  next_height_ = height + 1;
  current_round_ = 0;

  // Proposal dissemination, then two all-to-all vote rounds.
  deliver_proposal(proposer, height);
  for (sim::NodeId peer = 0; peer < cfg_.n; ++peer) {
    if (peer == proposer) continue;
    net_.send(proposer, peer, bytes, [this, peer, height] {
      deliver_proposal(peer, height);
    });
  }
  schedule_retry(height);
}

void CometbftSim::deliver_proposal(sim::NodeId node, std::uint64_t height) {
  // A height leaves inflight_ once committed everywhere; consensus traffic
  // still in flight then (retransmissions, slow links) must not resurrect it.
  const auto it = inflight_.find(height);
  if (it == inflight_.end()) return;
  HeightState& st = it->second;
  if (st.has_proposal[node]) return;
  st.has_proposal[node] = 1;
  if (st.sent_prevote[node]) return;
  st.sent_prevote[node] = 1;
  deliver_prevote(node, node, height);  // own vote counts immediately
  for (sim::NodeId peer = 0; peer < cfg_.n; ++peer) {
    if (peer == node) continue;
    net_.send(node, peer, kVoteSize,
              [this, node, peer, height] { deliver_prevote(node, peer, height); });
  }
}

void CometbftSim::deliver_prevote(sim::NodeId from, sim::NodeId at,
                                  std::uint64_t height) {
  const auto it = inflight_.find(height);
  if (it == inflight_.end()) return;  // committed everywhere; stale vote
  HeightState& st = it->second;
  auto& seen = st.prevote_from[std::size_t{at} * cfg_.n + from];
  if (seen) return;  // retransmitted vote: already counted
  seen = 1;
  ++st.prevotes[at];
  if (st.prevotes[at] >= quorum_ && st.has_proposal[at] && !st.sent_precommit[at]) {
    st.sent_precommit[at] = 1;
    deliver_precommit(at, at, height);
    for (sim::NodeId peer = 0; peer < cfg_.n; ++peer) {
      if (peer == at) continue;
      net_.send(at, peer, kVoteSize,
                [this, at, peer, height] { deliver_precommit(at, peer, height); });
    }
  }
}

void CometbftSim::deliver_precommit(sim::NodeId from, sim::NodeId at,
                                    std::uint64_t height) {
  const auto it = inflight_.find(height);
  if (it == inflight_.end()) return;  // committed everywhere; stale vote
  HeightState& st = it->second;
  auto& seen = st.precommit_from[std::size_t{at} * cfg_.n + from];
  if (seen) return;
  seen = 1;
  ++st.precommits[at];
  if (st.precommits[at] >= quorum_ && st.has_proposal[at] && !st.committed[at]) {
    commit_at(at, height);
  }
}

void CometbftSim::commit_at(sim::NodeId node, std::uint64_t height) {
  HeightState& st = height_state(height);
  st.committed[node] = 1;
  ++st.commit_count;

  if (!st.first_commit_done) {
    st.first_commit_done = true;
    st.block->first_commit_at = sim_.now();
    // chain_ is kept in height order even if a block's first commit lands
    // before its predecessor's (possible under extreme network delays).
    pending_chain_.emplace(height, st.block);
    while (!pending_chain_.empty() &&
           pending_chain_.begin()->first == chain_.size() + 1) {
      chain_.push_back(pending_chain_.begin()->second);
      pending_chain_.erase(pending_chain_.begin());
    }
    if (hooks_.on_block_committed) hooks_.on_block_committed(*st.block, sim_.now());
  }

  for (const Transaction* tx : st.block->txs) {
    mempools_[node].mark_committed(tx->uid, *tx);
  }

  // A proposer cannot start height h+1 before committing height h: schedule
  // the next proposal once the upcoming proposer commits this block.
  if (height + 1 == next_height_ && node == proposer_for(next_height_, 0) &&
      last_scheduled_height_ < next_height_) {
    last_scheduled_height_ = next_height_;
    const sim::Time at = std::max(st.block->proposed_at + cfg_.block_interval,
                                  sim_.now() + cfg_.timeout_commit);
    schedule_propose(next_height_, 0, at);
  }

  // Deliver FinalizeBlock strictly in height order at each node (P10);
  // a block overtaking a slower predecessor waits in the buffer.
  deliver_buffer_[node].emplace(height, st.block);
  auto& buf = deliver_buffer_[node];
  while (!buf.empty() && buf.begin()->first == next_deliver_[node]) {
    const auto block = buf.begin()->second;
    buf.erase(buf.begin());
    ++next_deliver_[node];
    if (app_cbs_[node]) app_cbs_[node](*block);
  }

  if (st.commit_count == cfg_.n) inflight_.erase(height);
}

void CometbftSim::schedule_retry(std::uint64_t height) {
  if (!net_.lossy()) return;
  HeightState& st = height_state(height);
  // Capped exponential backoff: a height stuck behind an unhealed fault must
  // not turn the retransmission path into a message storm.
  const sim::Time backoff =
      cfg_.retry_interval *
      static_cast<sim::Time>(1u << std::min<std::uint32_t>(st.retry_attempt, 3));
  ++st.retry_attempt;
  sim_.schedule_in(backoff, [this, height] { retry_height(height); });
}

void CometbftSim::retry_height(std::uint64_t height) {
  const auto it = inflight_.find(height);
  if (it == inflight_.end()) return;  // committed everywhere: retries stop
  HeightState& st = it->second;
  if (!st.block) return;

  // Chain-progress fallback: height h+1 is normally scheduled when its
  // proposer commits h; if that proposer is crashed it never commits, so
  // schedule anyway (try_propose round-skips past down proposers).
  if (st.first_commit_done && height + 1 == next_height_ &&
      last_scheduled_height_ < next_height_) {
    last_scheduled_height_ = next_height_;
    schedule_propose(next_height_, 0, sim_.now() + cfg_.timeout_commit);
  }

  // Forward the proposal from ANY live holder (CometBFT gossips proposals
  // peer-to-peer, so a dead original proposer does not strand the block).
  sim::NodeId holder = cfg_.n;
  for (sim::NodeId node = 0; node < cfg_.n; ++node) {
    if (st.has_proposal[node] && !net_.node_down(node)) {
      holder = node;
      break;
    }
  }
  if (holder < cfg_.n) {
    for (sim::NodeId peer = 0; peer < cfg_.n; ++peer) {
      if (st.has_proposal[peer] || net_.node_down(peer)) continue;
      net_.send(holder, peer, st.block->bytes,
                [this, peer, height] { deliver_proposal(peer, height); });
    }
  }

  // Retransmit recorded votes to exactly the peers still missing them;
  // sender-deduplicated receipt makes duplicates harmless. Known-down
  // senders and receivers are skipped — the post-heal pass covers them.
  for (sim::NodeId voter = 0; voter < cfg_.n; ++voter) {
    if (net_.node_down(voter)) continue;
    for (sim::NodeId peer = 0; peer < cfg_.n; ++peer) {
      if (peer == voter || net_.node_down(peer)) continue;
      if (st.sent_prevote[voter] &&
          !st.prevote_from[std::size_t{peer} * cfg_.n + voter]) {
        net_.send(voter, peer, kVoteSize, [this, voter, peer, height] {
          deliver_prevote(voter, peer, height);
        });
      }
      if (st.sent_precommit[voter] &&
          !st.precommit_from[std::size_t{peer} * cfg_.n + voter]) {
        net_.send(voter, peer, kVoteSize, [this, voter, peer, height] {
          deliver_precommit(voter, peer, height);
        });
      }
    }
  }
  schedule_retry(height);
}

void CometbftSim::schedule_regossip() {
  if (!net_.lossy() || regossip_scheduled_) return;
  regossip_scheduled_ = true;
  // Same capped backoff as retry_height: transactions stranded at a
  // never-healing node must not busy-poll the scheduler to the horizon.
  const sim::Time backoff =
      cfg_.retry_interval *
      static_cast<sim::Time>(1u << std::min<std::uint32_t>(regossip_attempt_, 3));
  ++regossip_attempt_;
  sim_.schedule_in(backoff, [this] { regossip_pending(); });
}

void CometbftSim::regossip_pending() {
  regossip_scheduled_ = false;
  if (!waiting_for_txs_) return;
  // A down proposer cannot be woken by arriving transactions: hand the
  // height to the next proposer in rotation (try_propose does the skip).
  if (net_.node_down(proposer_for(next_height_, current_round_))) {
    waiting_for_txs_ = false;
    schedule_propose(next_height_, current_round_,
                     std::max(sim_.now(), earliest_propose_));
    return;
  }
  // Re-offer every pending transaction to the peers still missing it, from
  // its first live holder only (several nodes usually hold the same tx; one
  // copy per missing peer is enough). The mempool's seen-filter keeps this
  // quiet once gossip has converged.
  bool any_pending = false;
  std::unordered_set<TxIdx> offered;
  for (sim::NodeId node = 0; node < cfg_.n; ++node) {
    const bool down = net_.node_down(node);
    for (const TxIdx idx : mempools_[node].pending_list()) {
      if (idx < proposed_.size() && proposed_[idx]) continue;
      // Transactions stranded at a down node still keep the chain ticking —
      // the holder may heal — but nothing can be gossiped from it now.
      any_pending = true;
      if (down) continue;
      if (!offered.insert(idx).second) continue;
      gossip_tx(node, idx);
    }
  }
  // Nothing left to hand over: let the chain die so the run can drain (a
  // future append re-arms it through accept_into_mempool).
  if (any_pending) schedule_regossip();
}

void CometbftSim::replay_range(sim::NodeId node, std::uint64_t from_height) {
  if (!app_cbs_[node]) return;
  for (std::uint64_t h = std::max<std::uint64_t>(from_height, 1);
       h < next_deliver_[node]; ++h) {
    app_cbs_[node](*chain_[h - 1]);
  }
}

bool CometbftSim::idle() const {
  for (const auto& [h, st] : inflight_) {
    if (st.block) return false;  // proposed but not yet committed everywhere
  }
  return true;
}

}  // namespace setchain::ledger
