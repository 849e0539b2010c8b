#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "codec/bytes.hpp"
#include "net/wire.hpp"

namespace setchain::net {

/// Addressable peer of a transport. Server nodes use their node id
/// (0 .. n-1); client connections get transport-assigned ids at or above
/// kClientEndpointBase, scoped to the local transport instance.
using EndpointId = std::uint64_t;
inline constexpr EndpointId kClientEndpointBase = 1u << 20;
inline bool is_client_endpoint(EndpointId e) { return e >= kClientEndpointBase; }

/// Inbound-frame sink. Transports invoke it on the owner's dispatch thread
/// only (TcpTransport: inside poll(); LoopbackTransport: inside the shared
/// simulation's events) — node logic never needs locking.
using FrameHandler = std::function<void(EndpointId from, wire::Frame&&)>;

/// Message-passing backend of one node: frames in, frames out, no ordering
/// or delivery guarantee beyond what the backend gives (loopback: in-order
/// unless a fault plan drops; TCP: in-order per connection, frames lost
/// whenever a connection drops). Everything above this interface —
/// consensus ledger, batch exchange, client RPC — must tolerate loss,
/// which is exactly the asynchronous-network model of the paper.
class ITransport {
 public:
  virtual ~ITransport() = default;

  virtual void set_handler(FrameHandler handler) = 0;

  /// Queue `payload` as one `type` frame to `to`. Best-effort: returns false
  /// when there is no live path (unknown endpoint, dead connection, full
  /// send queue) — the frame is dropped and counted, never buffered
  /// indefinitely (bounded queues are the backpressure).
  virtual bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) = 0;

  /// Deliver pending inbound frames to the handler on the calling thread,
  /// waiting up to `max_wait` for the first one. Returns frames delivered.
  /// Loopback transports deliver through the shared simulation instead and
  /// always return 0 here.
  virtual std::size_t poll(std::chrono::milliseconds max_wait) = 0;

  /// This node's id (the endpoint peers reach it under).
  virtual std::uint32_t self() const = 0;

  struct Counters {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t send_drops = 0;     ///< frames refused by send() (total)
    /// send_drops split by destination class: a peer drop means protocol
    /// traffic was lost to backpressure (a liveness smell worth alerting
    /// on); a client drop merely sheds RPC load (clients retry). The two
    /// always sum to send_drops.
    std::uint64_t send_drops_peer = 0;
    std::uint64_t send_drops_client = 0;
    std::uint64_t decode_errors = 0;  ///< streams killed by a framing error
    std::uint64_t reconnects = 0;     ///< successful re-dials after a drop
    /// High-water mark of any single connection's send queue (frames).
    /// Hitting send_queue_limit is where drops start.
    std::uint64_t send_queue_peak = 0;
  };
  virtual Counters counters() const = 0;
};

/// Decorator base: wraps another transport and passes everything but send()
/// straight through. Subclasses rewrite, drop or observe outbound frames
/// (and may override set_handler to observe inbound ones).
class ForwardingTransport : public ITransport {
 public:
  explicit ForwardingTransport(ITransport& inner) : inner_(inner) {}

  void set_handler(FrameHandler handler) override { inner_.set_handler(std::move(handler)); }
  std::size_t poll(std::chrono::milliseconds max_wait) override {
    return inner_.poll(max_wait);
  }
  std::uint32_t self() const override { return inner_.self(); }
  Counters counters() const override { return inner_.counters(); }

 protected:
  ITransport& inner_;
};

}  // namespace setchain::net
