#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "sim/fault.hpp"
#include "workload/arbitrum_like.hpp"

namespace setchain::runner {

enum class Algorithm : std::uint8_t { kVanilla, kCompresschain, kHashchain };

const char* algorithm_name(Algorithm a);

/// Inverse of algorithm_name, case-insensitive ("hashchain" == "Hashchain").
/// Unknown names yield nullopt. parse_algorithm(algorithm_name(a)) == a for
/// every Algorithm.
std::optional<Algorithm> parse_algorithm(std::string_view name);

/// Ordering layer of a live deployment: the wire-level consensus ledger,
/// the only one left. Kept as a one-value type for
/// NodeHostConfig::ledger_mode, which commitbench still sets.
enum class LedgerMode : std::uint8_t { kConsensus = 1 };

/// Complete description of one experiment run: the Table-1 parameter grid
/// plus fidelity/measurement knobs. Defaults mirror the paper's base
/// scenario (10 servers, 10,000 el/s, no added delay, 0.5 MB blocks at
/// 0.8 blocks/s).
struct Scenario {
  Algorithm algorithm = Algorithm::kHashchain;

  // Table 1 parameters.
  std::uint32_t n = 10;                        ///< server_count
  double sending_rate = 10'000.0;              ///< total el/s, all clients
  std::uint32_t collector_limit = 100;         ///< collector size (entries)
  sim::Time network_delay = 0;                 ///< artificial extra delay

  /// Byzantine bound used for the f+1 thresholds. Defaults to the CometBFT
  /// bound floor((n-1)/3) the deployment actually tolerates.
  std::optional<std::uint32_t> f;

  sim::Time add_duration = sim::from_seconds(50);  ///< clients add for 50 s
  sim::Time horizon = sim::from_seconds(300);      ///< hard stop
  sim::Time collector_timeout = sim::from_seconds(1);

  core::Fidelity fidelity = core::Fidelity::kCalibrated;
  bool validate_batches = true;  ///< Compresschain: decompress+validate
  bool hash_reversal = true;  ///< Hashchain: reversal service
  std::uint32_t hashchain_committee = 0;  ///< §H ablation: 0 = all sign
  bool lean_state = false;    ///< drop per-element sets (highest rates)
  bool per_element_metrics = false;  ///< per-element stage latencies (Fig. 4)
  bool track_ids = false;            ///< keep accepted-id lists (invariant tests)

  std::uint64_t seed = 20250911;

  // Ledger configuration (§4: CometBFT, 1.25 s blocks, 0.5 MB).
  sim::Time block_interval = sim::from_seconds(1.25);
  std::uint64_t block_bytes = 500'000;

  // Fault injection: application-level Byzantine behaviours...
  std::vector<std::uint32_t> byz_silent_proposers;
  std::vector<std::uint32_t> byz_refuse_batch;
  std::vector<std::uint32_t> byz_corrupt_proofs;
  std::vector<std::uint32_t> byz_fake_hashes;
  double client_invalid_fraction = 0.0;
  bool clients_duplicate_to_all = false;
  // ... plus the network/process fault schedule (message drops, partitions,
  // delay spikes, crash/restart), executed by the sim fault layer. NOTE on
  // liveness: elements accepted only by a server that later crashes can be
  // lost with its collector — scenarios asserting full liveness under crash
  // faults should set clients_duplicate_to_all so every element reaches a
  // correct server (the paper's Byzantine-client-proof submission).
  sim::FaultPlan faults;

  workload::ArbitrumLikeConfig workload_cfg;
  core::CostModel costs;

  std::uint32_t f_value() const { return f ? *f : (n - 1) / 3; }

  /// Parameter-sanity check: one message per violated constraint, empty when
  /// the scenario is runnable. Rejects f above the deployment's Byzantine
  /// bound floor((n-1)/3), non-positive rates/durations, committees larger
  /// than the cluster, fault injections aimed at nonexistent nodes, ...
  /// Experiment and api::ScenarioBuilder::build() enforce it.
  std::vector<std::string> validate() const;

  /// Materialize the SetchainParams handed to servers. `measured_ratio` is
  /// the szx compression ratio measured on sample batches at startup.
  core::SetchainParams make_params(double measured_ratio) const;
};

/// Pass-through gate: returns `s` unchanged, or throws std::invalid_argument
/// listing every validate() violation. Experiment construction and
/// api::ScenarioBuilder::build() both go through here.
Scenario throw_if_invalid(Scenario s);

}  // namespace setchain::runner
