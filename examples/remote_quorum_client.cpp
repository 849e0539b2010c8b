// Remote quorum client: the paper's Byzantine-tolerant client protocol
// against a LIVE Setchain cluster over TCP — the same QuorumClient the
// simulated examples use, pointed at RemoteNode stubs instead of in-process
// servers (the facade is the seam; nothing else changes).
//
// Spawn the cluster first (see README "Run a live cluster"), then:
//
//   $ ./remote_quorum_client --n 4 --f 1 --algo hashchain --seed 42
//       --node 127.0.0.1:7101 --node 127.0.0.1:7102
//       --node 127.0.0.1:7103 --node 127.0.0.1:7104 --count 24
//   (one command line; wrapped here for readability)
//
// Self-checking: exits 0 only when every added element reaches the
// f+1-agreed quorum view AND one element passes the f+1 epoch-proof commit
// check — so the CI smoke (scripts/tcp_cluster_smoke.sh) can assert a real
// cluster end to end.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/quorum_client.hpp"
#include "net/node_host.hpp"
#include "net/remote_node.hpp"
#include "net/tcp.hpp"

int main(int argc, char** argv) {
  using namespace setchain;
  using namespace std::chrono_literals;

  std::uint32_t n = 4, f = 1, count = 24, first_seq = 0;
  bool have_first_seq = false;
  std::uint64_t seed = 42;
  runner::Algorithm algo = runner::Algorithm::kHashchain;
  std::vector<std::string> nodes;
  int wait_seconds = 60;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (arg == "--n") {
      n = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--f") {
      f = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--count") {
      count = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--algo") {
      const auto a = runner::parse_algorithm(value());
      if (!a) return 2;
      algo = *a;
    } else if (arg == "--first-seq") {
      // Element-sequence offset: a second client run against the same
      // cluster must mint FRESH element ids (ids are (client, seq) pairs).
      // Without the flag the client derives it from the cluster's quorum
      // view, so restarted durable clusters accept fresh runs unattended.
      first_seq = static_cast<std::uint32_t>(std::atoi(value()));
      have_first_seq = true;
    } else if (arg == "--node") {
      nodes.emplace_back(value());
    } else if (arg == "--wait-seconds") {
      wait_seconds = std::atoi(value());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (nodes.size() != n) {
    std::fprintf(stderr, "need exactly n --node entries (got %zu, n=%u)\n",
                 nodes.size(), n);
    return 2;
  }

  // Shared deterministic PKI: the daemons derive the same keys from the same
  // seed, so elements signed here validate over there.
  const std::uint64_t cluster =
      net::wire::cluster_id(seed, n, f, static_cast<std::uint8_t>(algo));
  crypto::Pki pki(seed);
  for (crypto::ProcessId p = 0; p < n + 64; ++p) pki.register_process(p);
  const crypto::ProcessId client_id = n;  // first pre-registered client slot

  // One RemoteNode (TCP stub) per daemon; QuorumClient over all of them,
  // broadcasting adds so no single server is trusted with an element.
  std::vector<std::unique_ptr<net::RemoteNode>> stubs;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string host;
    std::uint16_t port = 0;
    if (!net::parse_host_port(nodes[i], host, port)) {
      std::fprintf(stderr, "bad --node %s\n", nodes[i].c_str());
      return 2;
    }
    net::TcpRpcChannel::Config ch;
    ch.host = host;
    ch.port = port;
    ch.client_id = client_id;
    ch.cluster = cluster;
    stubs.push_back(std::make_unique<net::RemoteNode>(
        std::make_unique<net::TcpRpcChannel>(ch), i, 3000ms));
  }
  api::QuorumClient client = api::make_quorum_client(
      stubs, pki, f, core::Fidelity::kFull, api::WritePolicy::kAll);

  // Wait for the cluster to come up: the first node that answers an epoch
  // query proves the wire path works.
  const auto boot_deadline = std::chrono::steady_clock::now() + 15s;
  for (;;) {
    const auto failures_before = stubs[0]->rpc_failures();
    stubs[0]->epoch();
    if (stubs[0]->rpc_failures() == failures_before) break;  // RPC answered
    if (std::chrono::steady_clock::now() > boot_deadline) {
      std::fprintf(stderr, "cluster did not come up within 15 s\n");
      return 1;
    }
    std::this_thread::sleep_for(200ms);
  }

  // No --first-seq: scan the quorum view for this client's highest used
  // sequence so a rerun against a recovered (or long-lived) cluster mints
  // fresh ids automatically instead of colliding with its own history.
  if (!have_first_seq) {
    const auto view0 = client.get();
    std::uint64_t next = 0;
    for (const auto id : view0.the_set) {
      if (core::element_client(id) != client_id) continue;
      const std::uint64_t s = id & ((std::uint64_t{1} << 40) - 1);
      if (s + 1 > next) next = s + 1;
    }
    first_seq = static_cast<std::uint32_t>(next);
    if (first_seq != 0) {
      std::printf("derived --first-seq %u from the cluster's quorum view\n",
                  first_seq);
    }
  }

  // Add `count` signed elements through the quorum protocol.
  workload::ArbitrumLikeGenerator gen(seed ^ 0xC11E47ULL);
  core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
  std::vector<core::ElementId> added;
  for (std::uint32_t s = first_seq; s < first_seq + count; ++s) {
    const core::Element e = factory.make(client_id, s);
    const auto r = client.add(e);
    if (r.ok) added.push_back(e.id);
  }
  std::printf("added %zu/%u elements through QuorumClient(kAll)\n", added.size(),
              count);
  if (added.size() != count) {
    std::fprintf(stderr, "FAIL: not every add was accepted by a server\n");
    return 1;
  }

  // Wait until the f+1-agreed quorum view contains every element.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(wait_seconds);
  api::QuorumClient::View view;
  for (;;) {
    view = client.get();
    std::size_t present = 0;
    for (const auto id : added) present += view.the_set.contains(id) ? 1 : 0;
    if (present == added.size()) break;
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr,
                   "FAIL: only %zu/%zu elements consolidated within %d s "
                   "(quorum epoch %llu)\n",
                   present, added.size(), wait_seconds,
                   static_cast<unsigned long long>(view.epoch));
      return 1;
    }
    std::this_thread::sleep_for(250ms);
  }
  std::printf("quorum view: epoch %llu, %zu elements consolidated\n",
              static_cast<unsigned long long>(view.epoch), view.the_set.size());

  // Commit check: f+1 valid epoch-proofs from distinct signers, gathered
  // across all nodes' proof stores.
  const auto verdict = client.wait_committed(added.front(), [] {
    std::this_thread::sleep_for(250ms);
    return true;  // a live cluster makes progress on its own
  });
  std::printf("verify(%llu): epoch %llu, %zu valid proofs from %zu nodes -> %s\n",
              static_cast<unsigned long long>(added.front()),
              static_cast<unsigned long long>(verdict.epoch), verdict.valid_proofs,
              verdict.proof_sources, verdict.committed ? "COMMITTED" : "not committed");
  if (!verdict.committed) {
    std::fprintf(stderr, "FAIL: element never reached f+1 epoch-proofs\n");
    return 1;
  }
  std::printf("PASS: live cluster served add/get/verify end to end\n");
  return 0;
}
