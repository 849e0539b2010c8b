#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/client.hpp"
#include "core/compresschain.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "core/vanilla.hpp"
#include "ledger/ledger_node.hpp"
#include "runner/scenario.hpp"
#include "sim/fault.hpp"

namespace setchain::core::testing {

/// Algorithm test harness on the InstantLedger: n servers in full fidelity,
/// fully synchronous and deterministic. Clients are driven manually (no
/// simulation clock); seal_rounds() pumps the ledger until it drains, which
/// is the "eventually" of the liveness properties.
template <typename Server>
struct AlgoHarness {
  std::uint32_t n;
  SetchainParams params;
  crypto::Pki pki{99};
  ledger::InstantLedger ledger;
  InProcessBatchExchange exchange;  ///< synchronous: no network, no clock
  workload::ArbitrumLikeGenerator gen{4};
  ElementFactory factory{gen, pki, Fidelity::kFull};
  std::vector<std::unique_ptr<Server>> servers;

  explicit AlgoHarness(std::uint32_t n_servers = 4, std::uint32_t collector_limit = 4)
      : n(n_servers), ledger(n_servers) {
    params.n = n;
    params.f = (n - 1) / 3;
    params.fidelity = Fidelity::kFull;
    params.collector_limit = collector_limit;
    params.collector_timeout = 0;  // no clock: flush manually / by size

    for (crypto::ProcessId p = 0; p < n; ++p) pki.register_process(p);
    for (crypto::ProcessId p = 100; p < 100 + n; ++p) pki.register_process(p);

    ServerContext ctx;
    ctx.ledger = &ledger;
    ctx.pki = &pki;
    ctx.batch_exchange = &exchange;
    ctx.params = &params;
    for (std::uint32_t i = 0; i < n; ++i) {
      auto s = std::make_unique<Server>(ctx, i);
      ledger.on_new_block(i, [p = s.get()](const ledger::Block& b) {
        p->on_new_block(b);
      });
      if constexpr (std::is_same_v<Server, HashchainServer>) exchange.attach(*s);
      servers.push_back(std::move(s));
    }
  }

  Element make_element(std::uint32_t client_slot, std::uint64_t seq) {
    return factory.make(100 + client_slot, seq);
  }

  /// Flush every server's collector (batch algorithms), if any.
  void flush_collectors() {
    if constexpr (!std::is_same_v<Server, VanillaServer>) {
      for (auto& s : servers) s->collector().flush();
    }
  }

  /// Seal blocks (flushing collectors between rounds) until the system is
  /// quiescent: no pending ledger txs and no partially filled collectors.
  void seal_rounds(int max_rounds = 60) {
    for (int round = 0; round < max_rounds; ++round) {
      flush_collectors();
      if (!ledger.seal_block()) {
        flush_collectors();
        if (!ledger.seal_block()) return;  // fully drained
      }
    }
    FAIL() << "system did not quiesce within " << max_rounds << " seal rounds";
  }

  std::vector<const SetchainServer*> all_servers() const {
    std::vector<const SetchainServer*> out;
    for (const auto& s : servers) out.push_back(s.get());
    return out;
  }
};

// ---------------------------------------------------------------------------
// Cross-algorithm conformance scenario matrix.
//
// One ConformanceScenario describes a deterministic workload (element rate ×
// server count × client-fault mix × server-Byzantine setting) that can be
// replayed identically against all three algorithms; drive_conformance()
// runs it and returns what the conformance suite compares across runs.

struct ConformanceScenario {
  const char* name;
  std::uint32_t n = 4;          ///< server count
  std::uint32_t collector = 4;  ///< collector limit (vanilla ignores it)
  int rounds = 4;               ///< seal rounds interleaved with adds
  int per_round = 10;           ///< adds per round: the element-rate proxy
  double invalid_fraction = 0.0;    ///< badly signed elements (rejected)
  double duplicate_fraction = 0.0;  ///< same element offered to every server
  int corrupt_proofs_server = -1;   ///< index, or -1: signs wrong epoch hashes
  int refuse_batch_server = -1;     ///< index, or -1: drops Request_batch
                                    ///< (clients route around it)
  bool fake_hash_server = false;    ///< server n-1 pairs real announcements
                                    ///< with fake hashes (Hashchain)
  std::uint64_t seed = 1;
};

/// What one algorithm produced for a scenario, read off a correct server
/// after quiescence.
struct ConformanceOutcome {
  std::vector<EpochRecord> history;  ///< correct server's full epoch chain
  std::uint64_t epochs = 0;
  std::uint64_t the_set_size = 0;
};

/// Replay `sc` against algorithm `Server`. Asserts the per-run property set
/// (P1-P8) on the correct servers and hands back the correct-server view via
/// `out`. Exposed as the correct SetchainServer so callers can also build
/// AlgoRun views; keeps the harness alive only for the duration of the call.
template <typename Server>
void drive_conformance(const ConformanceScenario& sc, ConformanceOutcome& out) {
  AlgoHarness<Server> h(sc.n, sc.collector);
  sim::Rng rng(sc.seed);

  std::vector<bool> byzantine(sc.n, false);
  if (sc.corrupt_proofs_server >= 0) {
    ServerByzantine b = h.servers[sc.corrupt_proofs_server]->byzantine();
    b.corrupt_proofs = true;
    h.servers[sc.corrupt_proofs_server]->set_byzantine(b);
    byzantine[sc.corrupt_proofs_server] = true;
  }
  if (sc.refuse_batch_server >= 0) {
    ServerByzantine b = h.servers[sc.refuse_batch_server]->byzantine();
    b.refuse_batch_service = true;
    h.servers[sc.refuse_batch_server]->set_byzantine(b);
    byzantine[sc.refuse_batch_server] = true;
  }
  if (sc.fake_hash_server) {
    ServerByzantine b = h.servers[sc.n - 1]->byzantine();
    b.fake_hash_batches = true;
    h.servers[sc.n - 1]->set_byzantine(b);
    byzantine[sc.n - 1] = true;
  }

  // Clients route around the batch-withholding server: elements entering only
  // its collector would consolidate under vanilla but not under hashchain,
  // which is a client-availability difference, not an algorithm divergence.
  std::vector<std::uint32_t> routable;
  for (std::uint32_t s = 0; s < sc.n; ++s) {
    if (static_cast<int>(s) != sc.refuse_batch_server) routable.push_back(s);
  }

  std::vector<ElementId> accepted;
  std::unordered_set<ElementId> created;
  std::uint64_t seq = 0;
  for (int round = 0; round < sc.rounds; ++round) {
    for (int i = 0; i < sc.per_round; ++i) {
      const auto client = static_cast<std::uint32_t>(rng.uniform_u64(sc.n));
      const auto target = routable[rng.uniform_u64(routable.size())];
      const double dice = rng.uniform01();
      if (dice < sc.invalid_fraction) {
        const Element bad = h.factory.make_invalid(100 + client, seq++);
        created.insert(bad.id);
        EXPECT_FALSE(h.servers[target]->add(bad)) << sc.name;
      } else if (dice < sc.invalid_fraction + sc.duplicate_fraction) {
        const Element e = h.make_element(client, seq++);
        created.insert(e.id);
        bool any = false;
        for (const auto s : routable) any = h.servers[s]->add(e) || any;
        if (any) accepted.push_back(e.id);
      } else {
        const Element e = h.make_element(client, seq++);
        created.insert(e.id);
        if (h.servers[target]->add(e)) accepted.push_back(e.id);
      }
    }
    // Partial seal between bursts: epochs form while traffic still arrives.
    h.flush_collectors();
    h.ledger.seal_block();
  }
  h.seal_rounds(400);

  std::vector<const SetchainServer*> correct;
  for (std::uint32_t s = 0; s < sc.n; ++s) {
    if (!byzantine[s]) correct.push_back(h.servers[s].get());
  }
  const auto safety = check_safety(correct);
  EXPECT_TRUE(safety.ok()) << sc.name << "\n" << safety.to_string();
  const auto live = check_liveness_quiescent(correct, accepted, h.params, h.pki);
  EXPECT_TRUE(live.ok()) << sc.name << "\n" << live.to_string();
  const auto p7 = check_add_before_get(correct, created);
  EXPECT_TRUE(p7.ok()) << sc.name << "\n" << p7.to_string();

  const auto snap = correct.front()->get();
  out.history = *snap.history;
  out.epochs = snap.epoch;
  out.the_set_size = correct.front()->the_set_size();
}

// ---------------------------------------------------------------------------
// Seeded scenario fuzzing (tests/fuzz/scenario_fuzz_test.cpp).
//
// make_fuzz_case(seed) expands a 64-bit seed into a complete Experiment
// scenario: algorithm × cluster size × rate × fault plan (message drops,
// partitions, delay spikes, crash/restart). The expansion is deterministic,
// so a failing seed IS its reproducer:
//   ./scenario_fuzz_test --gtest_filter='*OneSeed*' with SETCHAIN_FUZZ_ONE=<seed>

struct FuzzCase {
  runner::Scenario scenario;
  /// True when every fault heals inside the add window. The run must then
  /// recover completely, and the harness asserts the full liveness property
  /// set on every server — crashed-and-restarted ones included. With an
  /// unhealed fault only the safety properties are asserted.
  bool check_liveness = true;
  /// Fault kinds present in the plan, indexed by sim::FaultKind.
  bool has_kind[4] = {false, false, false, false};
  bool has_wipe = false;
  std::string summary;  ///< one-line description for failure messages
};

inline FuzzCase make_fuzz_case(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0x5CE4A71F00DULL);
  FuzzCase fc;
  runner::Scenario& s = fc.scenario;

  const std::uint32_t n_choices[] = {4, 4, 5, 7, 10};
  s.n = n_choices[rng.uniform_u64(5)];
  const std::uint32_t f = (s.n - 1) / 3;
  const runner::Algorithm algos[] = {runner::Algorithm::kVanilla,
                                     runner::Algorithm::kCompresschain,
                                     runner::Algorithm::kHashchain};
  s.algorithm = algos[rng.uniform_u64(3)];
  s.sending_rate = 100.0 + static_cast<double>(rng.uniform_u64(400));
  const std::uint32_t c_choices[] = {8, 20, 50};
  s.collector_limit = c_choices[rng.uniform_u64(3)];
  const double add_s = 3.0 + rng.uniform(0.0, 2.0);
  s.add_duration = sim::from_seconds(add_s);
  s.horizon = sim::from_seconds(180);  // generous drain margin for recovery
  s.fidelity = core::Fidelity::kCalibrated;
  s.track_ids = true;
  s.seed = seed ^ 0xF0225EEDULL;

  // Nodes eligible for crashes and partition groups: at most f of them, so
  // the f+1 correct quorums the Setchain properties rely on always exist.
  std::vector<sim::NodeId> pool(s.n);
  for (std::uint32_t i = 0; i < s.n; ++i) pool[i] = i;
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.uniform_u64(i)]);
  }
  pool.resize(1 + rng.uniform_u64(std::max<std::uint32_t>(f, 1)));  // 1..f nodes
  std::vector<sim::NodeId> crashable = pool;  // each node crashes at most once

  auto& faults = s.faults.faults;
  const int n_faults = rng.chance(0.1) ? 0 : 1 + static_cast<int>(rng.uniform_u64(3));
  for (int i = 0; i < n_faults; ++i) {
    // Windows open after traffic exists and close before the add window
    // ends, so a healed plan leaves the system time to recover in-band.
    const double start_s = add_s * rng.uniform(0.10, 0.50);
    const double dur_s = add_s * rng.uniform(0.15, 0.40);
    const sim::Time start = sim::from_seconds(start_s);
    const sim::Time end = sim::from_seconds(start_s + dur_s);
    std::uint64_t kind = rng.uniform_u64(4);
    if (kind == 3 && crashable.empty()) kind = 2;  // every pool node already crashes
    switch (kind) {
      case 0: {  // per-link (or blanket) message loss
        if (rng.chance(0.5)) {
          faults.push_back(sim::Fault::drop(sim::kAnyNode, sim::kAnyNode,
                                            rng.uniform(0.05, 0.35), start, end));
        } else {
          const auto a = static_cast<sim::NodeId>(rng.uniform_u64(s.n));
          auto b = static_cast<sim::NodeId>(rng.uniform_u64(s.n - 1));
          if (b >= a) ++b;
          faults.push_back(sim::Fault::drop(a, b, rng.uniform(0.2, 1.0), start, end));
        }
        fc.has_kind[static_cast<int>(sim::FaultKind::kDrop)] = true;
        break;
      }
      case 1: {  // partition: a subset of the pool vs the rest
        std::vector<sim::NodeId> group(pool.begin(),
                                       pool.begin() + 1 + rng.uniform_u64(pool.size()));
        faults.push_back(sim::Fault::partition(std::move(group), start, end,
                                               /*symmetric=*/rng.chance(0.7)));
        fc.has_kind[static_cast<int>(sim::FaultKind::kPartition)] = true;
        break;
      }
      case 2: {  // latency spike
        const sim::Time extra = sim::from_millis(50.0 + rng.uniform(0.0, 1150.0));
        faults.push_back(sim::Fault::delay_spike(extra, start, end));
        fc.has_kind[static_cast<int>(sim::FaultKind::kDelaySpike)] = true;
        break;
      }
      case 3: {  // crash/restart (state retained or wiped)
        const sim::NodeId node = crashable.back();
        crashable.pop_back();
        const bool wipe = rng.chance(0.5);
        const bool unhealed = rng.chance(0.15);
        faults.push_back(
            sim::Fault::crash(node, start, unhealed ? sim::kNeverHeals : end, wipe));
        if (unhealed) fc.check_liveness = false;
        // Crash-proof submission: every element must reach a correct server
        // even when its primary dies with a full collector.
        s.clients_duplicate_to_all = true;
        fc.has_kind[static_cast<int>(sim::FaultKind::kCrash)] = true;
        fc.has_wipe = fc.has_wipe || wipe;
        break;
      }
    }
  }

  fc.summary = "seed=" + std::to_string(seed) + " algo=" +
               runner::algorithm_name(s.algorithm) + " n=" + std::to_string(s.n) +
               " rate=" + std::to_string(static_cast<int>(s.sending_rate)) +
               " collector=" + std::to_string(s.collector_limit) + " faults=[";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& flt = faults[i];
    fc.summary += std::string(i ? " " : "") + sim::fault_kind_name(flt.kind) + "(" +
                  std::to_string(sim::to_seconds(flt.start)) + "s-" +
                  (flt.heals() ? std::to_string(sim::to_seconds(flt.end)) + "s"
                               : std::string("never")) +
                  (flt.kind == sim::FaultKind::kCrash && flt.wipe_state ? ",wipe" : "") +
                  ")";
  }
  fc.summary += "]";
  return fc;
}

}  // namespace setchain::core::testing
