#pragma once

#include <memory>

#include "core/client.hpp"
#include "core/compresschain.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "core/vanilla.hpp"
#include "ledger/consensus.hpp"
#include "runner/scenario.hpp"

namespace setchain::runner {

/// Aggregated outcome of one run, carrying everything the paper's tables and
/// figures report.
struct RunResult {
  std::uint64_t elements_added = 0;
  std::uint64_t elements_committed = 0;
  std::uint64_t epochs = 0;
  std::uint64_t blocks = 0;

  double avg_throughput_50s = 0.0;  ///< Table 2: committed by 50 s / 50 s
  /// committed / time-of-last-commit: the sustainable drain rate, which for
  /// stressed runs reads the ledger-bound capacity instead of the end burst.
  double sustained_throughput = 0.0;
  double efficiency_50 = 0.0;  ///< Fig. 3 bars
  double efficiency_75 = 0.0;
  double efficiency_100 = 0.0;

  double measured_compress_ratio = 0.0;
  double sim_seconds = 0.0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_dropped = 0;  ///< messages lost to the fault layer
};

/// Owns and wires one complete simulated deployment: n docker-style nodes,
/// each with a CometBFT ledger node, a Setchain server, and a rate-driven
/// client — the paper's evaluation platform (§4) in DES form.
class Experiment {
 public:
  /// Throws std::invalid_argument when scenario.validate() rejects the
  /// parameters (build scenarios through api::ScenarioBuilder to fail early).
  explicit Experiment(Scenario scenario);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Run to the horizon (or natural quiescence, whichever first).
  void run();

  RunResult result() const;

  // Introspection for tests and examples.
  sim::Simulation& simulation() { return *sim_; }
  sim::Network& network() { return *net_; }
  ledger::CometbftSim& ledger() { return *ledger_; }
  metrics::StageRecorder& recorder() { return *recorder_; }
  crypto::Pki& pki() { return *pki_; }
  const Scenario& scenario() const { return scenario_; }
  const core::SetchainParams& params() const { return params_; }

  /// Message-level fault counters, or null when the scenario has no faults.
  const sim::FaultInjector* fault_injector() const { return net_->faults(); }

  std::vector<core::SetchainServer*> servers();
  /// Servers not configured with any Byzantine behaviour and not targeted by
  /// a crash fault — the set the Setchain properties are stated over.
  std::vector<const core::SetchainServer*> correct_servers() const;
  core::SetchainServer& server(std::uint32_t i) { return *servers_[i]; }
  core::SetchainClient& client(std::uint32_t i) { return *clients_[i]; }

  /// A quorum client over all n servers — the paper's client protocol
  /// (Byzantine-tolerant add/get/verify), with f and fidelity taken from
  /// the scenario. This is the supported way for examples and tests to talk
  /// to the deployment; server(i) remains for white-box introspection.
  api::QuorumClient make_client(api::WritePolicy policy = api::WritePolicy::kPrimary,
                                std::size_t primary = 0);

  /// Ids of valid elements accepted by correct servers (requires
  /// scenario.track_ids); input to the liveness invariant checks.
  const std::vector<core::ElementId>& accepted_valid_ids() const {
    return accepted_valid_ids_;
  }
  /// Every id any client ever created (for P7 Add-before-Get).
  const std::unordered_set<core::ElementId>& created_ids() const { return created_ids_; }

  /// Measure the szx codec ratio on sample batches of `limit` elements.
  static double measure_compress_ratio(const workload::ArbitrumLikeConfig& cfg,
                                       std::uint32_t limit, std::uint64_t seed);

 private:
  bool is_byzantine(std::uint32_t node) const;

  Scenario scenario_;
  double measured_ratio_;
  core::SetchainParams params_;

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Network> net_;
  std::vector<sim::BusyResource> cpus_;
  std::unique_ptr<core::InProcessBatchExchange> batch_exchange_;
  std::unique_ptr<crypto::Pki> pki_;
  std::shared_ptr<metrics::StageRecorder> recorder_;
  std::unique_ptr<workload::ArbitrumLikeGenerator> gen_;
  std::unique_ptr<core::ElementFactory> factory_;
  std::unique_ptr<ledger::CometbftSim> ledger_;
  std::vector<std::unique_ptr<core::SetchainServer>> servers_;
  std::vector<std::unique_ptr<core::SetchainClient>> clients_;

  std::unordered_map<ledger::TxIdx, std::vector<core::ElementId>> tx_elements_;
  std::vector<core::ElementId> accepted_valid_ids_;
  std::unordered_set<core::ElementId> created_ids_;

  double wall_ms_ = 0.0;
};

/// One-shot convenience used by the benchmark binaries.
RunResult run_scenario(const Scenario& scenario);

}  // namespace setchain::runner
