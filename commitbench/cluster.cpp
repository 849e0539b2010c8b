#include "cluster.hpp"

#include <time.h>

#include <chrono>
#include <filesystem>

namespace commitbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

FrameClass classify(net::wire::MsgType t) {
  using net::wire::MsgType;
  switch (t) {
    case MsgType::kAddRequest:
      return FrameClass::kAdd;
    case MsgType::kProposal:
    case MsgType::kPrevote:
    case MsgType::kPrecommit:
    case MsgType::kRoundSkip:
      return FrameClass::kConsensus;
    case MsgType::kTxSubmit:
    case MsgType::kBlock:
    case MsgType::kBlockSyncRequest:
    case MsgType::kBlockSyncResponse:
      return FrameClass::kLedger;
    case MsgType::kBatchRequest:
    case MsgType::kBatchResponse:
      return FrameClass::kBatchX;
    case MsgType::kSnapshotRequest:
    case MsgType::kProofsRequest:
    case MsgType::kEpochRequest:
      return FrameClass::kReads;
    default:
      return FrameClass::kOther;
  }
}

const char* frame_class_name(FrameClass c) {
  switch (c) {
    case FrameClass::kAdd: return "add";
    case FrameClass::kConsensus: return "consensus";
    case FrameClass::kLedger: return "ledger";
    case FrameClass::kBatchX: return "batchx";
    case FrameClass::kReads: return "reads";
    case FrameClass::kOther: return "other";
  }
  return "other";
}

DurableCluster::DurableCluster(const net::NodeHostConfig& cfg, std::string data_dir,
                               bool trace)
    : cfg_(cfg), data_dir_(std::move(data_dir)), trace_(trace) {
  cluster_ = net::NodeHost::cluster_id_of(cfg_);
}

DurableCluster::~DurableCluster() {
  stop();
  nodes_.clear();  // hosts before transports before storage (member order)
  std::error_code ec;
  std::filesystem::remove_all(data_dir_, ec);
}

bool DurableCluster::start(std::string* error) {
  std::vector<std::string> peer_addrs;
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    auto node = std::make_unique<Node>();
    net::TcpConfig tc;
    tc.self = i;
    tc.n = cfg_.n;
    tc.cluster = cluster_;
    tc.listen_port = 0;
    tc.peers = peer_addrs;
    tc.peers.resize(cfg_.n);
    node->transport = std::make_unique<net::TcpTransport>(tc);
    peer_addrs.push_back("127.0.0.1:" + std::to_string(node->transport->listen_port()));

    storage::StorageConfig sc;  // daemon defaults: FsyncMode::kInterval
    sc.dir = data_dir_ + "/node" + std::to_string(i);
    node->store = storage::Storage::open(sc, error);
    if (node->store == nullptr) return false;

    net::NodeHostConfig c = cfg_;
    c.id = i;
    node->host = std::make_unique<net::NodeHost>(c, node->sim, *node->transport,
                                                 node->store.get());
    if (!node->host->recover(error)) return false;
    nodes_.push_back(std::move(node));
  }
  for (auto& node : nodes_) {
    node->host->start();
    if (trace_) install_trace(*node);
    node->transport->start();
  }
  for (auto& node : nodes_) {
    Node* n = node.get();
    n->pump = std::thread([this, n] { n->host->run_realtime(stop_); });
    ::pthread_getcpuclockid(n->pump.native_handle(), &n->pump_clock);
  }
  running_ = true;
  return true;
}

void DurableCluster::install_trace(Node& node) {
  node.trace.spans.reserve(1u << 18);
  node.transport->set_handler([&node](net::EndpointId from, net::wire::Frame&& f) {
    const FrameClass cls = classify(f.type);
    core::ElementId add_id = 0;
    if (cls == FrameClass::kAdd) {
      if (const auto m = net::wire::parse_add_request(f.payload)) add_id = m->element.id;
    }
    const std::int64_t start = now_ns();
    const std::int64_t cpu0 = thread_cpu_ns();
    node.host->on_frame(from, std::move(f));
    const std::int64_t cpu1 = thread_cpu_ns();
    node.trace.spans.push_back(HandlerSpan{start, cpu1 - cpu0, cls});
    if (add_id != 0) node.trace.acks.push_back(AddAck{add_id, now_ns()});
  });
}

void DurableCluster::stop() {
  if (!running_) return;
  running_ = false;
  stop_.store(true);
  for (auto& node : nodes_) {
    if (node->pump.joinable()) node->pump.join();
  }
  for (auto& node : nodes_) {
    node->transport->stop();
    node->store->sync();
  }
}

std::vector<load::Target> DurableCluster::targets(std::uint32_t count) const {
  std::vector<load::Target> out;
  for (std::uint32_t i = 0; i < count && i < cfg_.n; ++i) {
    out.push_back(load::Target{"127.0.0.1", port(i)});
  }
  return out;
}

std::int64_t DurableCluster::pump_cpu_ns(std::uint32_t i) const {
  return clock_ns(nodes_[i]->pump_clock);
}

}  // namespace commitbench
