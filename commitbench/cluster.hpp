#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "load/fleet.hpp"
#include "net/node_host.hpp"
#include "net/tcp.hpp"
#include "sim/simulation.hpp"
#include "storage/storage.hpp"

namespace commitbench {

using namespace setchain;

/// steady_clock nanoseconds: the one time base every span and stamp uses.
std::int64_t now_ns();
/// CPU time of the calling thread / of another thread's CPU clock.
std::int64_t thread_cpu_ns();
std::int64_t clock_ns(clockid_t clock);

/// Frame classes the traced handler wrapper splits NodeHost::on_frame by.
enum class FrameClass : std::uint8_t {
  kAdd,        ///< kAddRequest: core validation + crypto
  kConsensus,  ///< kProposal / kPrevote / kPrecommit / kRoundSkip
  kLedger,     ///< kTxSubmit / kBlock / kBlockSync*
  kBatchX,     ///< kBatchRequest / kBatchResponse (Hashchain)
  kReads,      ///< kSnapshot / kProofs / kEpoch requests
  kOther,
};
inline constexpr std::size_t kFrameClasses = 6;
FrameClass classify(net::wire::MsgType t);
const char* frame_class_name(FrameClass c);

/// One NodeHost::on_frame call: wall start, thread-CPU duration.
struct HandlerSpan {
  std::int64_t start_ns = 0;
  std::int64_t cpu_ns = 0;
  FrameClass cls = FrameClass::kOther;
};

/// Server-side add-ack: the moment on_frame returned for a kAddRequest,
/// i.e. the response was queued to the client.
struct AddAck {
  core::ElementId id = 0;
  std::int64_t at_ns = 0;
};

/// Spans of one node, appended only by that node's pump thread and read
/// only after the pumps are joined.
struct NodeTrace {
  std::vector<HandlerSpan> spans;
  std::vector<AddAck> acks;
};

/// An in-process n-node consensus cluster over real TCP on 127.0.0.1, every
/// node durable (its own Storage directory with the daemon's defaults) and
/// pumped by the shipped NodeHost::run_realtime on a thread this class
/// owns. With `trace` set, a wrapper installed through
/// ITransport::set_handler after NodeHost::start() records one span per
/// inbound frame.
class DurableCluster {
 public:
  DurableCluster(const net::NodeHostConfig& cfg, std::string data_dir, bool trace);
  ~DurableCluster();
  DurableCluster(const DurableCluster&) = delete;
  DurableCluster& operator=(const DurableCluster&) = delete;

  /// Open storage, recover, start hosts, transports and pump threads.
  bool start(std::string* error);
  /// Stop pumps (joined) and transports, fsync storage. Idempotent.
  void stop();

  std::uint64_t cluster_id() const { return cluster_; }
  std::uint16_t port(std::uint32_t i) const { return nodes_[i]->transport->listen_port(); }
  std::vector<load::Target> targets(std::uint32_t count) const;

  net::NodeHost& host(std::uint32_t i) { return *nodes_[i]->host; }
  const storage::Storage& storage(std::uint32_t i) const { return *nodes_[i]->store; }
  net::ITransport::Counters counters(std::uint32_t i) const {
    return nodes_[i]->transport->counters();
  }
  const NodeTrace& trace(std::uint32_t i) const { return nodes_[i]->trace; }
  /// CPU time consumed so far by node i's pump thread (valid while running).
  std::int64_t pump_cpu_ns(std::uint32_t i) const;

 private:
  struct Node {
    sim::Simulation sim;
    std::unique_ptr<net::TcpTransport> transport;
    std::unique_ptr<storage::Storage> store;
    std::unique_ptr<net::NodeHost> host;
    NodeTrace trace;
    clockid_t pump_clock{};
    std::thread pump;
  };

  void install_trace(Node& node);

  net::NodeHostConfig cfg_;
  std::string data_dir_;
  bool trace_ = false;
  std::uint64_t cluster_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace commitbench
