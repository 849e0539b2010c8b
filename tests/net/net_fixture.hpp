#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/compresschain.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "core/vanilla.hpp"
#include "ledger/ledger_node.hpp"
#include "net/node_host.hpp"

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

}  // namespace setchain::net::testing
