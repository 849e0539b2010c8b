#include "api/scenario_builder.hpp"

#include <stdexcept>

namespace setchain::api {

ScenarioBuilder& ScenarioBuilder::algorithm(runner::Algorithm a) {
  scenario_.algorithm = a;
  bad_algorithm_.clear();
  return *this;
}

ScenarioBuilder& ScenarioBuilder::algorithm(std::string_view name) {
  if (const auto a = runner::parse_algorithm(name)) {
    scenario_.algorithm = *a;
    bad_algorithm_.clear();
  } else {
    bad_algorithm_ = std::string(name);
  }
  return *this;
}

ScenarioBuilder& ScenarioBuilder::servers(std::uint32_t n) {
  scenario_.n = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::faults(std::uint32_t f) {
  scenario_.f = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::rate(double el_per_s) {
  scenario_.sending_rate = el_per_s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::collector(std::uint32_t entries) {
  scenario_.collector_limit = entries;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::network_delay_ms(double ms) {
  scenario_.network_delay = sim::from_millis(ms);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::add_seconds(double s) {
  scenario_.add_duration = sim::from_seconds(s);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::horizon_seconds(double s) {
  scenario_.horizon = sim::from_seconds(s);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::block(double interval_s, std::uint64_t bytes) {
  scenario_.block_interval = sim::from_seconds(interval_s);
  scenario_.block_bytes = bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::committee(std::uint32_t k) {
  scenario_.hashchain_committee = k;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::hash_reversal(bool on) {
  scenario_.hash_reversal = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::validate_batches(bool on) {
  scenario_.validate_batches = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fidelity(core::Fidelity f) {
  scenario_.fidelity = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::lean_state(bool on) {
  scenario_.lean_state = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::per_element_metrics(bool on) {
  scenario_.per_element_metrics = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::track_ids(bool on) {
  scenario_.track_ids = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  scenario_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::byzantine_silent_proposer(std::uint32_t node) {
  scenario_.byz_silent_proposers.push_back(node);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::byzantine_refuse_batch(std::uint32_t node) {
  scenario_.byz_refuse_batch.push_back(node);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::byzantine_corrupt_proofs(std::uint32_t node) {
  scenario_.byz_corrupt_proofs.push_back(node);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::byzantine_fake_hashes(std::uint32_t node) {
  scenario_.byz_fake_hashes.push_back(node);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::client_invalid_fraction(double fraction) {
  scenario_.client_invalid_fraction = fraction;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::clients_duplicate_to_all(bool on) {
  scenario_.clients_duplicate_to_all = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault(sim::Fault f) {
  scenario_.faults.faults.push_back(std::move(f));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault_drop(sim::NodeId from, sim::NodeId to,
                                             double probability, double start_s,
                                             double end_s) {
  return fault(sim::Fault::drop(from, to, probability, sim::from_seconds(start_s),
                                sim::from_seconds(end_s)));
}

ScenarioBuilder& ScenarioBuilder::fault_partition(std::vector<sim::NodeId> group,
                                                  double start_s, double heal_s,
                                                  bool symmetric) {
  return fault(sim::Fault::partition(std::move(group), sim::from_seconds(start_s),
                                     sim::from_seconds(heal_s), symmetric));
}

ScenarioBuilder& ScenarioBuilder::fault_delay(double extra_ms, double start_s,
                                              double end_s) {
  return fault(sim::Fault::delay_spike(sim::from_millis(extra_ms),
                                       sim::from_seconds(start_s),
                                       sim::from_seconds(end_s)));
}

ScenarioBuilder& ScenarioBuilder::fault_crash(sim::NodeId node, double start_s,
                                              double restart_s, bool wipe) {
  const sim::Time restart =
      restart_s < 0 ? sim::kNeverHeals : sim::from_seconds(restart_s);
  return fault(sim::Fault::crash(node, sim::from_seconds(start_s), restart, wipe));
}

runner::Scenario ScenarioBuilder::build() const {
  if (!bad_algorithm_.empty()) {
    throw std::invalid_argument("invalid scenario:\n  - unknown algorithm '" +
                                bad_algorithm_ +
                                "' (expected vanilla, compresschain, or hashchain)");
  }
  return runner::throw_if_invalid(scenario_);
}

}  // namespace setchain::api
