#include "core/batch_exchange.hpp"

#include "core/hashchain.hpp"
#include "sim/network.hpp"

namespace setchain::core {

void InProcessBatchExchange::attach(HashchainServer& server) {
  if (servers_.size() <= server.id()) servers_.resize(server.id() + 1, nullptr);
  servers_[server.id()] = &server;
}

void InProcessBatchExchange::send_request(crypto::ProcessId requester,
                                          crypto::ProcessId holder, const EpochHash& h,
                                          std::uint64_t wire_bytes) {
  HashchainServer* peer = servers_.at(holder);
  if (net_ == nullptr) {
    peer->serve_batch_request(requester, h);
    return;
  }
  net_->send(requester, holder, wire_bytes,
             [peer, requester, h] { peer->serve_batch_request(requester, h); });
}

void InProcessBatchExchange::send_response(crypto::ProcessId responder,
                                           crypto::ProcessId requester,
                                           const EpochHash& h, BatchPtr batch,
                                           const codec::Bytes* serialized) {
  HashchainServer* peer = servers_.at(requester);
  // The message owns what it carries — a copy of the bytes and their parse,
  // never a view into the responder's store, which a crash may wipe.
  codec::Bytes bytes;
  std::uint64_t wire_bytes = batch->wire_size();
  if (serialized != nullptr) {
    bytes = *serialized;
    wire_bytes = bytes.size();
    auto parsed = parse_batch(bytes);
    if (!parsed) return;
    batch = std::make_shared<const Batch>(std::move(*parsed));
  }
  if (net_ == nullptr) {
    peer->on_batch_response(h, std::move(batch), std::move(bytes));
    return;
  }
  net_->send(responder, requester, wire_bytes,
             [peer, h, batch = std::move(batch), bytes = std::move(bytes)]() mutable {
               peer->on_batch_response(h, std::move(batch), std::move(bytes));
             });
}

BatchPtr InProcessBatchExchange::find_anywhere(const EpochHash& h) const {
  for (const HashchainServer* server : servers_) {
    if (server == nullptr || server->is_down()) continue;
    if (BatchPtr batch = server->store().find(h)) return batch;
  }
  return nullptr;
}

}  // namespace setchain::core
