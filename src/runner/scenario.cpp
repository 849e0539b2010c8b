#include "runner/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <utility>

namespace setchain::runner {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kVanilla:
      return "Vanilla";
    case Algorithm::kCompresschain:
      return "Compresschain";
    case Algorithm::kHashchain:
      return "Hashchain";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "vanilla") return Algorithm::kVanilla;
  if (lower == "compresschain") return Algorithm::kCompresschain;
  if (lower == "hashchain") return Algorithm::kHashchain;
  return std::nullopt;
}

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  const auto reject = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  if (n == 0) reject("n must be >= 1 server");
  if (n > 0 && f_value() > (n - 1) / 3) {
    reject("f=" + std::to_string(f_value()) + " exceeds the Byzantine bound floor((n-1)/3)=" +
           std::to_string((n - 1) / 3) + " for n=" + std::to_string(n));
  }
  if (sending_rate <= 0) reject("sending_rate must be > 0 el/s");
  if (collector_limit == 0) reject("collector_limit must be >= 1 entry");
  if (network_delay < 0) reject("network_delay must be >= 0");
  if (add_duration <= 0) reject("add_duration must be > 0");
  if (horizon < add_duration) reject("horizon must cover the add_duration");
  if (collector_timeout < 0) reject("collector_timeout must be >= 0");
  if (hashchain_committee > n) {
    reject("hashchain_committee=" + std::to_string(hashchain_committee) +
           " exceeds the cluster size n=" + std::to_string(n));
  }
  if (block_interval <= 0) reject("block_interval must be > 0");
  if (block_bytes == 0) reject("block_bytes must be > 0");
  if (client_invalid_fraction < 0.0 || client_invalid_fraction > 1.0) {
    reject("client_invalid_fraction must be within [0, 1]");
  }

  const auto check_nodes = [&](const std::vector<std::uint32_t>& nodes,
                               const char* what) {
    for (const auto node : nodes) {
      if (node >= n) {
        reject(std::string(what) + " targets node " + std::to_string(node) +
               " outside 0.." + std::to_string(n == 0 ? 0 : n - 1));
      }
    }
  };
  check_nodes(byz_silent_proposers, "byz_silent_proposers");
  check_nodes(byz_refuse_batch, "byz_refuse_batch");
  check_nodes(byz_corrupt_proofs, "byz_corrupt_proofs");
  check_nodes(byz_fake_hashes, "byz_fake_hashes");

  if (algorithm == Algorithm::kHashchain && !hash_reversal && !faults.empty()) {
    reject(
        "hashchain light mode (hash_reversal=false) assumes a perfect "
        "dissemination layer and cannot be combined with a fault plan");
  }
  for (auto& msg : faults.validate(n)) errors.push_back(std::move(msg));
  return errors;
}

Scenario throw_if_invalid(Scenario s) {
  const auto errors = s.validate();
  if (!errors.empty()) {
    std::string msg = "invalid scenario:";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::invalid_argument(msg);
  }
  return s;
}

core::SetchainParams Scenario::make_params(double measured_ratio) const {
  core::SetchainParams p;
  p.n = n;
  p.f = f_value();
  p.collector_limit = collector_limit;
  p.collector_timeout = collector_timeout;
  p.fidelity = fidelity;
  p.validate = validate_batches;
  p.hash_reversal = hash_reversal;
  p.hashchain_committee = hashchain_committee;
  p.lean_state = lean_state;
  p.calibrated_compress_ratio = measured_ratio;
  p.costs = costs;
  return p;
}

}  // namespace setchain::runner
