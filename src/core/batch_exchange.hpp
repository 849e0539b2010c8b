#pragma once

#include <vector>

#include "core/batch.hpp"
#include "core/proofs.hpp"

namespace setchain::sim {
class Network;
}

namespace setchain::core {

class HashchainServer;

/// Transport seam for Hashchain's batch-exchange service (Request_batch /
/// batch response, §3) and the only way a Hashchain server reaches a peer.
/// The algorithm only decides *what* to ask whom; an IBatchExchange decides
/// *how* the messages travel: InProcessBatchExchange (below) between the
/// servers of one process, net::NodeHost as wire frames over a real
/// transport (in-process loopback or TCP sockets).
///
/// Both calls are fire-and-forget: loss is legal (the requester's fetch
/// timeout and retry machinery owns recovery), which is exactly the
/// guarantee a real datagram-or-dropped-connection network gives. Neither
/// call models CPU time: a server with a simulated CPU (the DES) calls
/// send_response at the modeled completion time itself.
class IBatchExchange {
 public:
  virtual ~IBatchExchange() = default;

  /// Deliver a Request_batch(h) from `requester` to `holder` (a server that
  /// signed h). The holder answers through its own exchange — or stays
  /// silent (crashed, Byzantine, or the request got lost in transit).
  /// `wire_bytes` is the request's modeled wire size (transport accounting).
  virtual void send_request(crypto::ProcessId requester, crypto::ProcessId holder,
                            const EpochHash& h, std::uint64_t wire_bytes) = 0;

  /// Deliver the batch behind `h` back to `requester`. `serialized` is null
  /// in calibrated fidelity; full-fidelity responses travel as bytes the
  /// exchange owns from here on, and the receiver re-hashes their parse
  /// (the responder may be Byzantine).
  virtual void send_response(crypto::ProcessId responder, crypto::ProcessId requester,
                             const EpochHash& h, BatchPtr batch,
                             const codec::Bytes* serialized) = 0;

  /// Hashchain Light (no reversal service, Fig. 2 ablation) assumes perfect
  /// dissemination: the batch behind `h` from any up server, at no cost.
  /// Only an in-process exchange can answer; transports return null.
  virtual BatchPtr find_anywhere(const EpochHash&) const { return nullptr; }
};

/// The batch exchange between the HashchainServers of one process: each
/// message is a hop on the simulated Network in the DES, or a synchronous
/// direct call without one (the InstantLedger harnesses).
class InProcessBatchExchange final : public IBatchExchange {
 public:
  explicit InProcessBatchExchange(sim::Network* net = nullptr) : net_(net) {}

  /// Make `server` reachable under its id. Attach each server once.
  void attach(HashchainServer& server);

  void send_request(crypto::ProcessId requester, crypto::ProcessId holder,
                    const EpochHash& h, std::uint64_t wire_bytes) override;
  void send_response(crypto::ProcessId responder, crypto::ProcessId requester,
                     const EpochHash& h, BatchPtr batch,
                     const codec::Bytes* serialized) override;
  BatchPtr find_anywhere(const EpochHash& h) const override;

 private:
  sim::Network* net_;
  std::vector<HashchainServer*> servers_;  ///< index = server id
};

}  // namespace setchain::core
