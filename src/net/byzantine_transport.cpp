#include "net/byzantine_transport.hpp"

#include "crypto/sha256.hpp"
#include "net/node_host.hpp"

namespace setchain::net {

ByzantineTransport::ByzantineTransport(ITransport& inner, const NodeHostConfig& cfg)
    : ForwardingTransport(inner),
      n_(cfg.n),
      self_(cfg.id),
      cluster_(NodeHost::cluster_id_of(cfg)),
      pki_(cfg.seed),
      forged_height_(cfg.n, 0) {
  pki_.register_process(self_);
}

bool ByzantineTransport::send(EndpointId to, wire::MsgType type,
                              codec::ByteView payload) {
  switch (type) {
    case wire::MsgType::kProposal:
      return send_proposal(to, payload);
    case wire::MsgType::kPrevote:
    case wire::MsgType::kPrecommit:
      return send_vote(to, type, payload);
    case wire::MsgType::kBlockSyncResponse:
      return send_sync_response(to, payload);
    default:
      return inner_.send(to, type, payload);
  }
}

bool ByzantineTransport::send_proposal(EndpointId to, codec::ByteView payload) {
  const auto v = wire::parse_signed_proposal_view(payload);
  if (!v || v->block.proposer != self_ || to >= n_) {
    return inner_.send(to, wire::MsgType::kProposal, payload);
  }
  const wire::ProposalHash hash = crypto::Sha256::hash(payload);
  // The twin relayed back by a peer and re-offered by our ledger: as is.
  if (hash == fork_alt_hash_) return inner_.send(to, wire::MsgType::kProposal, payload);
  if (hash != fork_hash_) {
    fork_hash_ = hash;
    fork_alt_ = conflicting_proposal(payload);
    fork_alt_hash_ = crypto::Sha256::hash(fork_alt_);
    fork_reached_.assign(n_, false);
  }
  const bool first = !fork_reached_[to];
  fork_reached_[to] = true;
  return inner_.send(to, wire::MsgType::kProposal,
                     (first && to % 2 == 1) ? codec::ByteView(fork_alt_) : payload);
}

codec::Bytes ByzantineTransport::conflicting_proposal(codec::ByteView payload) const {
  // Same grammar as the view send_proposal already parsed: cannot fail.
  const auto p = wire::parse_proposal(payload);
  std::vector<const ledger::Transaction*> txs;
  if (p->block.txs.size() >= 2) {
    for (auto it = p->block.txs.rbegin(); it != p->block.txs.rend(); ++it) {
      txs.push_back(&*it);
    }
  }
  const codec::Bytes block_bytes = wire::encode_block(p->block.height, self_, txs);
  return wire::encode_signed_proposal(
      block_bytes, pki_.sign(self_, wire::proposal_transcript(cluster_, block_bytes)));
}

bool ByzantineTransport::send_vote(EndpointId to, wire::MsgType type,
                                   codec::ByteView payload) {
  const auto m = wire::parse_vote(payload);
  if (!m || m->voter != self_ || to >= n_) return inner_.send(to, type, payload);

  // Forgeries go out ahead of the honest vote: once the double vote below
  // gets this node masked, receivers drop its votes before verification. A
  // send refused for want of a live path (a TCP peer not yet connected) is
  // retried with the next own vote.
  if (forged_height_[to] < m->height) {
    wire::VoteMsg imp;
    imp.height = m->height;
    imp.round = m->round;
    imp.voter = (self_ + 1) % n_;
    imp.hash.fill(0x42);
    inner_.send(to, wire::MsgType::kPrevote, wire::encode_vote(imp));
    wire::VoteMsg garbage;
    garbage.height = m->height;
    garbage.round = m->round;
    garbage.voter = self_;
    garbage.hash.fill(0x66);
    if (inner_.send(to, wire::MsgType::kPrevote, wire::encode_vote(garbage))) {
      forged_height_[to] = m->height;
    }
  }

  const bool sent = inner_.send(to, type, payload);
  wire::VoteMsg evil = *m;
  evil.hash[0] ^= 0xFF;
  evil.sig = pki_.sign(
      self_, wire::vote_transcript(cluster_, type, evil.height, evil.round, evil.hash));
  inner_.send(to, type, wire::encode_vote(evil));
  return sent;
}

bool ByzantineTransport::send_sync_response(EndpointId to, codec::ByteView payload) {
  auto m = wire::parse_block_sync_response(payload);
  if (!m) return inner_.send(to, wire::MsgType::kBlockSyncResponse, payload);
  std::vector<codec::ByteView> views;
  for (codec::Bytes& b : m->blocks) {
    if (!b.empty()) b[b.size() / 2] ^= 0x5A;
    views.emplace_back(b);
  }
  return inner_.send(to, wire::MsgType::kBlockSyncResponse,
                     wire::encode_block_sync_response(views));
}

}  // namespace setchain::net
