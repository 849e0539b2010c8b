#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "api/quorum_client.hpp"
#include "core/compresschain.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "core/vanilla.hpp"
#include "ledger/ledger_node.hpp"
#include "net/byzantine_transport.hpp"
#include "net/loopback.hpp"
#include "net/node_host.hpp"
#include "net/remote_node.hpp"

namespace setchain::net::testing {

/// Deterministic workload shared by a live cluster and its reference run:
/// `count` signed elements from client id `cfg.n` (the first pre-registered
/// client slot), exactly what examples/remote_quorum_client generates.
inline std::vector<core::Element> make_workload(const NodeHostConfig& cfg,
                                                std::uint32_t count,
                                                crypto::Pki& pki) {
  workload::ArbitrumLikeGenerator gen(cfg.seed ^ 0xC11E47ULL);
  core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
  std::vector<core::Element> out;
  out.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    out.push_back(factory.make(cfg.n, s));
  }
  return out;
}

struct ReferenceRun {
  std::vector<core::EpochRecord> history;  ///< correct server 0's epoch chain
  std::unordered_set<core::ElementId> the_set;
};

/// The oracle: the same algorithm, same PKI seed, same elements, driven on
/// the deterministic InstantLedger entirely in-process (the harness the
/// conformance suite trusts). Epoch BOUNDARIES may differ from a live run
/// (timing differs); the consolidated set must not, and epoch hashes are
/// content-pure — check_cross_algorithm (P9) asserts exactly that.
template <typename Server>
ReferenceRun run_reference_algo(const NodeHostConfig& cfg,
                                const std::vector<core::Element>& elements) {
  core::SetchainParams params;
  params.n = cfg.n;
  params.f = cfg.f;
  params.fidelity = core::Fidelity::kFull;
  params.collector_limit = cfg.collector_limit;
  params.collector_timeout = 0;  // no clock: flush manually

  crypto::Pki pki(cfg.seed);
  for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
    pki.register_process(p);
  }
  ledger::InstantLedger ledger(cfg.n);
  core::InProcessBatchExchange exchange;

  core::ServerContext ctx;
  ctx.ledger = &ledger;
  ctx.pki = &pki;
  ctx.batch_exchange = &exchange;
  ctx.params = &params;
  std::vector<std::unique_ptr<Server>> servers;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    auto s = std::make_unique<Server>(ctx, i);
    ledger.on_new_block(i, [p = s.get()](const ledger::Block& b) { p->on_new_block(b); });
    if constexpr (std::is_same_v<Server, core::HashchainServer>) exchange.attach(*s);
    servers.push_back(std::move(s));
  }

  const auto flush = [&] {
    if constexpr (!std::is_same_v<Server, core::VanillaServer>) {
      for (auto& s : servers) s->collector().flush();
    }
  };
  // kAll write policy, like the live QuorumClient: every server sees every
  // element (later copies are duplicates the algorithms discard).
  for (const auto& e : elements) {
    for (auto& s : servers) s->add(e);
  }
  for (int round = 0; round < 400; ++round) {
    flush();
    if (!ledger.seal_block()) {
      flush();
      if (!ledger.seal_block()) break;
    }
  }

  ReferenceRun out;
  const auto snap = servers.front()->get();
  out.history = *snap.history;
  out.the_set = *snap.the_set;
  return out;
}

inline ReferenceRun run_reference(const NodeHostConfig& cfg,
                                  const std::vector<core::Element>& elements) {
  switch (cfg.algorithm) {
    case runner::Algorithm::kVanilla:
      return run_reference_algo<core::VanillaServer>(cfg, elements);
    case runner::Algorithm::kCompresschain:
      return run_reference_algo<core::CompresschainServer>(cfg, elements);
    case runner::Algorithm::kHashchain:
      return run_reference_algo<core::HashchainServer>(cfg, elements);
  }
  return {};
}

/// Assert the per-run Setchain property set (P1-P8) plus P9 against the
/// reference run, on the (all-correct) servers of a live cluster.
inline void assert_cluster_matches_reference(
    const std::vector<const core::SetchainServer*>& servers,
    const std::vector<core::ElementId>& accepted,
    const std::unordered_set<core::ElementId>& created,
    const core::SetchainParams& params, const crypto::Pki& pki,
    const ReferenceRun& reference, const char* label) {
  const auto safety = core::check_safety(servers);
  EXPECT_TRUE(safety.ok()) << label << "\n" << safety.to_string();
  const auto live = core::check_liveness_quiescent(servers, accepted, params, pki);
  EXPECT_TRUE(live.ok()) << label << "\n" << live.to_string();
  const auto p7 = core::check_add_before_get(servers, created);
  EXPECT_TRUE(p7.ok()) << label << "\n" << p7.to_string();

  // P9 live-vs-sim: same consolidated set, content-pure hashes wherever the
  // two runs agree on an epoch's (number, contents).
  const auto live_snap = servers.front()->get();
  std::vector<core::AlgoRun> runs;
  runs.push_back({std::string(label) + "/live", live_snap.history});
  runs.push_back({std::string(label) + "/sim-reference", &reference.history});
  const auto p9 = core::check_cross_algorithm(runs);
  EXPECT_TRUE(p9.ok()) << label << "\n" << p9.to_string();

  // Belt and braces: the live consolidated set IS the reference one.
  std::unordered_set<core::ElementId> live_set;
  for (const auto& rec : *live_snap.history) {
    live_set.insert(rec.ids.begin(), rec.ids.end());
  }
  EXPECT_EQ(live_set, reference.the_set) << label;
}

/// Per-node transport decorator for a test cluster: given a node's config
/// and its bare transport, return the transport its NodeHost should use
/// instead, or nullptr to leave that node bare.
using TransportWrapper =
    std::function<std::unique_ptr<ITransport>(const NodeHostConfig&, ITransport&)>;

/// The transport node `c.id` should run on: `bare`, or what `wrap` puts in
/// front of it (kept alive in `owned`).
inline ITransport& wrap_transport(const TransportWrapper& wrap, const NodeHostConfig& c,
                                  ITransport& bare,
                                  std::vector<std::unique_ptr<ITransport>>& owned) {
  if (!wrap) return bare;
  std::unique_ptr<ITransport> w = wrap(c, bare);
  if (!w) return bare;
  owned.push_back(std::move(w));
  return *owned.back();
}

/// Node `byz` runs behind the Byzantine adversary; every other node is bare.
inline TransportWrapper byzantine_node(std::uint32_t byz) {
  return [byz](const NodeHostConfig& c, ITransport& t) -> std::unique_ptr<ITransport> {
    if (c.id != byz) return nullptr;
    return std::make_unique<ByzantineTransport>(t, c);
  };
}

/// Drive the workload through the full wire path and return accepted ids.
inline std::vector<core::ElementId> drive(api::QuorumClient& client,
                                          const std::vector<core::Element>& elements) {
  std::vector<core::ElementId> accepted;
  for (const auto& e : elements) {
    const auto r = client.add(e);
    EXPECT_TRUE(r.ok) << "add refused everywhere, element " << e.id;
    if (r.ok) accepted.push_back(e.id);
  }
  return accepted;
}

/// n NodeHosts — the exact stack a TCP daemon runs — on one LoopbackHub
/// and one shared discrete-event simulation.
struct LoopbackCluster {
  NodeHostConfig cfg;
  sim::Simulation sim;
  LoopbackHub hub;
  std::vector<std::unique_ptr<ITransport>> wrappers;  ///< outlive the hosts
  std::vector<std::unique_ptr<NodeHost>> hosts;
  crypto::Pki pki;  ///< client-side PKI (same seed -> same keys as daemons)

  /// `link_latency` is the one-way hop delay. Keep it at or under 1 ms:
  /// LoopbackRpcChannel pumps the simulation in 1 ms slices and the clock
  /// does not advance through an empty slice.
  explicit LoopbackCluster(runner::Algorithm algo, std::uint64_t seed = 42,
                           std::uint32_t n = 4,
                           sim::Time link_latency = sim::from_micros(120))
      : cfg(make_config(algo, seed, n)), hub(sim, n, link_latency), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }
  }

  static NodeHostConfig make_config(runner::Algorithm algo, std::uint64_t seed,
                                    std::uint32_t n) {
    NodeHostConfig cfg;
    cfg.n = n;
    cfg.f = (n - 1) / 3;
    cfg.algorithm = algo;
    cfg.seed = seed;
    cfg.collector_limit = 6;
    cfg.collector_timeout = sim::from_millis(200);
    cfg.block_interval = sim::from_millis(150);
    cfg.sync_interval = sim::from_millis(400);
    // Rounds must skip past a dead proposer well inside the test budget.
    cfg.timeout_propose = sim::from_millis(600);
    cfg.retry_interval = sim::from_millis(200);
    return cfg;
  }

  /// Boot every node, each on its hub transport or on what `wrap` puts in
  /// front of it.
  void start(const TransportWrapper& wrap = {}) {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      NodeHostConfig c = cfg;
      c.id = i;
      ITransport& t = wrap_transport(wrap, c, hub.transport(i), wrappers);
      hosts.push_back(std::make_unique<NodeHost>(c, sim, t));
      hosts.back()->start();
    }
  }

  api::QuorumClient client(std::vector<std::unique_ptr<RemoteNode>>& stubs) {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      stubs.push_back(std::make_unique<RemoteNode>(
          std::make_unique<LoopbackRpcChannel>(hub, i), i));
    }
    return api::make_quorum_client(stubs, pki, cfg.f, core::Fidelity::kFull,
                                   api::WritePolicy::kAll);
  }

  void pump_seconds(double s) { sim.run_until(sim.now() + sim::from_seconds(s)); }

  /// Pump until `pred` holds (checked every virtual 250 ms). False on
  /// virtual-time budget exhaustion.
  bool pump_until(const std::function<bool()>& pred, double budget_seconds = 120) {
    const sim::Time deadline = sim.now() + sim::from_seconds(budget_seconds);
    while (sim.now() < deadline) {
      if (pred()) return true;
      sim.run_until(sim.now() + sim::from_millis(250));
    }
    return pred();
  }

  /// Correct-server views, skipping crashed or Byzantine node indices.
  std::vector<const core::SetchainServer*> servers(
      const std::vector<std::uint32_t>& skip = {}) const {
    std::vector<const core::SetchainServer*> out;
    for (std::uint32_t i = 0; i < hosts.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
      out.push_back(&hosts[i]->server());
    }
    return out;
  }

  bool consolidated(std::size_t expect, const std::vector<std::uint32_t>& skip = {}) const {
    for (const core::SetchainServer* s : servers(skip)) {
      const auto snap = s->get();
      std::size_t in_history = 0;
      for (const auto& rec : *snap.history) in_history += rec.ids.size();
      if (in_history < expect) return false;
    }
    return true;
  }

  bool liveness_green(const std::vector<core::ElementId>& accepted,
                      const std::vector<std::uint32_t>& skip = {}) const {
    return core::check_liveness_quiescent(servers(skip), accepted, hosts[0]->params(),
                                          hosts[0]->pki())
        .ok();
  }
};

}  // namespace setchain::net::testing
