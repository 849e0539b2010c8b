#pragma once

#include <vector>

#include "crypto/pki.hpp"
#include "net/transport.hpp"

namespace setchain::net {

struct NodeHostConfig;

/// TEST-ONLY adversary for the Byzantine-path tests and the
/// `setchain_node --byz-consensus` smoke node. It wraps the transport of one
/// consensus-mode node whose ledger stays honest, and rewrites that node's
/// outbound frames into the four attacks the honest majority must survive:
///
///  * the first send of each fresh own proposal to an odd-id peer carries a
///    second, conflicting signed payload instead (same block, txs
///    reversed); even-id peers and every later retransmission get the
///    honest payload, so the odd peers eventually hold both and mask us;
///  * every own prevote/precommit is followed by a second signed vote for a
///    fabricated hash in the same (height, round);
///  * once per height and peer, ahead of the first own vote sent: one prevote
///    impersonating the next node (the identity gate rejects it) and one
///    own prevote with a garbage signature (batch verification rejects it);
///  * every block of a kBlockSyncResponse has one byte flipped (the
///    requester's certificate check rejects it).
///
/// Forgeries are signed with the node's own key, derived from the shared
/// PKI seed exactly as the node's NodeHost derives it. Single-threaded like
/// the transport it wraps: send() runs on the owning node's dispatch thread.
class ByzantineTransport final : public ForwardingTransport {
 public:
  ByzantineTransport(ITransport& inner, const NodeHostConfig& cfg);

  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override;

 private:
  bool send_proposal(EndpointId to, codec::ByteView payload);
  bool send_vote(EndpointId to, wire::MsgType type, codec::ByteView payload);
  bool send_sync_response(EndpointId to, codec::ByteView payload);
  /// The same block with its txs reversed (empty when fewer than two),
  /// signed as a second proposal for the same height.
  codec::Bytes conflicting_proposal(codec::ByteView payload) const;

  std::uint32_t n_;
  std::uint32_t self_;
  std::uint64_t cluster_;
  crypto::Pki pki_;  ///< holds this node's key only

  // The latest fresh own proposal (an honest ledger authors one per
  // height), its conflicting twin, and the peers its first send reached.
  wire::ProposalHash fork_hash_{};
  wire::ProposalHash fork_alt_hash_{};
  codec::Bytes fork_alt_;
  std::vector<bool> fork_reached_;
  std::vector<std::uint64_t> forged_height_;  ///< per peer: last height forged at
};

}  // namespace setchain::net
