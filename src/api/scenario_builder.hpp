#pragma once

#include <string_view>

#include "runner/scenario.hpp"

namespace setchain::api {

/// Fluent front end for runner::Scenario — deployment descriptions read as a
/// sentence instead of brace-initialized field soup, and build() refuses to
/// hand out a scenario that Scenario::validate() rejects:
///
///   auto scenario = api::ScenarioBuilder()
///                       .algorithm(runner::Algorithm::kHashchain)
///                       .servers(10)
///                       .faults(3)
///                       .rate(10'000)
///                       .add_seconds(50)
///                       .build();
class ScenarioBuilder {
 public:
  ScenarioBuilder& algorithm(runner::Algorithm a);
  /// By name ("vanilla" / "compresschain" / "hashchain", case-insensitive);
  /// unknown names surface as a build() error.
  ScenarioBuilder& algorithm(std::string_view name);

  /// Cluster size n (the paper's server_count). build() rejects 0.
  ScenarioBuilder& servers(std::uint32_t n);
  /// Byzantine bound f used for every f+1 threshold — quorum reads, commit
  /// proofs, hash-batch consolidation. Values above floor((n-1)/3), the
  /// bound the CometBFT deployment actually tolerates, are rejected at
  /// build(); defaults to that bound when never set.
  ScenarioBuilder& faults(std::uint32_t f);
  /// Total client sending rate (elements/second across the cluster).
  /// Non-positive rates are rejected at build().
  ScenarioBuilder& rate(double el_per_s);
  /// Collector size (entries) for Compresschain/Hashchain batch formation;
  /// a smaller collector fills (and consolidates) faster at more ledger
  /// traffic per element. Ignored by Vanilla.
  ScenarioBuilder& collector(std::uint32_t entries);
  /// Artificial one-way delay added to every message (Table 1's
  /// network_delay WAN-emulation knob).
  ScenarioBuilder& network_delay_ms(double ms);
  /// How long clients keep adding. Liveness properties are asserted only
  /// for elements accepted in this window.
  ScenarioBuilder& add_seconds(double s);
  /// Hard stop for the run: traffic still in flight at the horizon is
  /// abandoned, so drain-sensitive checks need horizon >> add window
  /// (fault scenarios need recovery slack too).
  ScenarioBuilder& horizon_seconds(double s);
  /// Ledger pacing: proposal interval and maximum block payload bytes.
  ScenarioBuilder& block(double interval_s, std::uint64_t bytes);
  /// Hashchain signer committee size (0 = every server co-signs, the
  /// paper's evaluated variant). Values below f+1 are clamped up to f+1 —
  /// consolidation requires f+1 signatures. Larger than n is rejected.
  ScenarioBuilder& committee(std::uint32_t k);
  /// Hashchain hash-reversal service on/off. Off = the "Light" ablation,
  /// which assumes ALL servers correct: build() rejects combining it with
  /// a fault plan or Byzantine servers.
  ScenarioBuilder& hash_reversal(bool on);
  /// Compresschain receive-side decompress+validate on/off (off = the
  /// "Light" ablation; trusts peers, for throughput ceilings only).
  ScenarioBuilder& validate_batches(bool on);
  /// kFull = real crypto/bytes end to end; kCalibrated = virtual payloads
  /// with calibrated CPU charges (high-rate sweeps). Conformance and
  /// Byzantine tests want kFull so forged signatures actually fail.
  ScenarioBuilder& fidelity(core::Fidelity f);
  ScenarioBuilder& full_fidelity() { return fidelity(core::Fidelity::kFull); }
  /// Drop per-element set bookkeeping (highest-rate sweeps). Disables the
  /// id-level invariant checks — the workload guarantees uniqueness.
  ScenarioBuilder& lean_state(bool on = true);
  /// Record per-element stage latencies (Fig. 4 CDFs); costs host memory.
  ScenarioBuilder& per_element_metrics(bool on = true);
  /// Keep accepted/created id lists — required by the liveness invariant
  /// checks (P2-P4, P7) and the quorum-read tests.
  ScenarioBuilder& track_ids(bool on = true);
  /// Master seed: PKI keys, workload, network jitter, and the fault
  /// injector all derive from it, so (scenario, seed) replays exactly.
  ScenarioBuilder& seed(std::uint64_t seed);

  // Application-level Byzantine behaviours (repeatable; node indices are
  // checked at build()). Byzantine servers forfeit every guarantee: the
  // property checkers and `Experiment::correct_servers()` exclude them,
  // and the f bound caps how many a scenario may configure meaningfully.
  /// Ledger node `node` never proposes; consensus round-skips past it.
  ScenarioBuilder& byzantine_silent_proposer(std::uint32_t node);
  /// Server `node` silently drops Request_batch service calls; fetchers
  /// time out and retry other signers (f+1 signers include a correct one).
  ScenarioBuilder& byzantine_refuse_batch(std::uint32_t node);
  /// Server `node` signs wrong epoch hashes; its proofs fail validation
  /// everywhere and never count toward the f+1 commit threshold.
  ScenarioBuilder& byzantine_corrupt_proofs(std::uint32_t node);
  /// Hashchain server `node` pairs every real announcement with a fake
  /// hash nobody can reverse; correct servers must not stall on it.
  ScenarioBuilder& byzantine_fake_hashes(std::uint32_t node);
  /// Fraction of client elements created with bad signatures — correct
  /// servers refuse them (they never enter the_set or any epoch).
  ScenarioBuilder& client_invalid_fraction(double fraction);
  /// Clients offer every element to ALL servers (the paper's
  /// Byzantine-client-proof submission). Required for full liveness under
  /// crash faults: an element held only by a crashing server's collector
  /// dies with it otherwise.
  ScenarioBuilder& clients_duplicate_to_all(bool on = true);

  // Network/process fault schedule (repeatable; validated at build()).
  // Times are seconds of sim time; `sim::kAnyNode` is the link wildcard.
  /// Append an arbitrary pre-built fault.
  ScenarioBuilder& fault(sim::Fault f);
  /// Drop each from->to message with `probability` during [start_s, end_s).
  ScenarioBuilder& fault_drop(sim::NodeId from, sim::NodeId to, double probability,
                              double start_s, double end_s);
  /// Cut `group` off from the rest of the cluster during [start_s, heal_s);
  /// `symmetric=false` cuts only the group's outbound direction.
  ScenarioBuilder& fault_partition(std::vector<sim::NodeId> group, double start_s,
                                   double heal_s, bool symmetric = true);
  /// Add `extra_ms` to every message during [start_s, end_s).
  ScenarioBuilder& fault_delay(double extra_ms, double start_s, double end_s);
  /// Crash `node` at start_s; restart at restart_s (pass
  /// `ScenarioBuilder::kNoRestart` to keep it down), optionally wiping its
  /// consolidated state (rebuilt from the ledger on restart).
  static constexpr double kNoRestart = -1.0;
  ScenarioBuilder& fault_crash(sim::NodeId node, double start_s,
                               double restart_s = kNoRestart, bool wipe = false);

  /// Validated scenario; throws std::invalid_argument listing every violated
  /// constraint (f > (n-1)/3, zero rates, committee > n, ...).
  runner::Scenario build() const;

  /// The scenario as accumulated so far, unvalidated (for introspection).
  const runner::Scenario& peek() const { return scenario_; }

 private:
  runner::Scenario scenario_;
  std::string bad_algorithm_;  ///< unparseable algorithm name, reported at build()
};

}  // namespace setchain::api
