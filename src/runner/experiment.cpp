#include "runner/experiment.hpp"

#include <algorithm>
#include <chrono>

#include "codec/lz77.hpp"

namespace setchain::runner {

double Experiment::measure_compress_ratio(const workload::ArbitrumLikeConfig& cfg,
                                          std::uint32_t limit, std::uint64_t seed) {
  // Build a few full-fidelity sample batches (payload bytes, dummy
  // signatures — the codec only sees entropy, not validity) and measure the
  // real szx ratio, exactly what calibrated runs then charge per batch.
  workload::ArbitrumLikeGenerator gen(seed ^ 0xCA71B8A7EULL, cfg);
  double total_raw = 0.0, total_comp = 0.0;
  std::uint64_t next_id = 1;
  for (int sample = 0; sample < 3; ++sample) {
    core::Batch b;
    for (std::uint32_t i = 0; i < limit; ++i) {
      core::Element e;
      e.id = next_id++;
      e.client = 0;
      const std::uint32_t target = gen.sample_size();
      const std::uint32_t payload =
          target > core::kElementOverhead ? target - core::kElementOverhead : 16;
      e.payload = gen.make_payload(e.id, payload);
      e.wire_size = target;
      b.elements.push_back(std::move(e));
    }
    const codec::Bytes raw = core::serialize_batch(b);
    const codec::Bytes comp = codec::lz77_compress(raw);
    total_raw += static_cast<double>(raw.size());
    total_comp += static_cast<double>(comp.size());
  }
  return total_comp > 0 ? total_raw / total_comp : 1.0;
}

Experiment::Experiment(Scenario scenario)
    : scenario_(throw_if_invalid(std::move(scenario))),
      measured_ratio_(measure_compress_ratio(scenario_.workload_cfg,
                                             scenario_.collector_limit, scenario_.seed)),
      params_(scenario_.make_params(measured_ratio_)) {
  const std::uint32_t n = scenario_.n;

  sim_ = std::make_unique<sim::Simulation>();

  sim::NetworkConfig net_cfg;
  net_cfg.extra_delay = scenario_.network_delay;
  net_ = std::make_unique<sim::Network>(*sim_, n, net_cfg, scenario_.seed ^ 0x4E7ULL);
  if (!scenario_.faults.empty()) {
    net_->install_faults(scenario_.faults, scenario_.seed ^ 0xFA017ULL);
  }

  cpus_.resize(n);
  batch_exchange_ = std::make_unique<core::InProcessBatchExchange>(net_.get());

  pki_ = std::make_unique<crypto::Pki>(scenario_.seed);
  for (std::uint32_t i = 0; i < n; ++i) pki_->register_process(i);
  for (std::uint32_t i = 0; i < n; ++i) pki_->register_process(n + i);  // clients

  recorder_ = std::make_shared<metrics::StageRecorder>(metrics::StageRecorder::Config{
      n, scenario_.f_value(), scenario_.per_element_metrics});

  gen_ = std::make_unique<workload::ArbitrumLikeGenerator>(scenario_.seed,
                                                           scenario_.workload_cfg);
  factory_ = std::make_unique<core::ElementFactory>(*gen_, *pki_, scenario_.fidelity);

  // --- ledger ---
  ledger::ConsensusConfig lcfg;
  lcfg.n = n;
  lcfg.block_interval = scenario_.block_interval;
  lcfg.max_block_bytes = scenario_.block_bytes;

  ledger::LedgerHooks hooks;
  const core::CostModel& costs = scenario_.costs;
  hooks.check_tx_cost = [costs](const ledger::Transaction& tx) {
    return costs.check_tx_cost(tx.wire_size);
  };
  hooks.check_tx = [fidelity = scenario_.fidelity](const ledger::Transaction& tx) {
    if (fidelity == core::Fidelity::kCalibrated) {
      return tx.kind != ledger::TxKind::kOpaque && tx.app != nullptr;
    }
    if (tx.data.empty()) return false;
    const std::uint8_t b0 = tx.data[0];
    return b0 == core::kElementTag || b0 == core::kEpochProofTag ||
           b0 == core::kHashBatchTag || b0 == 'S' /* SZX1 compressed batch */;
  };
  if (scenario_.per_element_metrics) {
    hooks.on_mempool_add = [this](sim::NodeId node, ledger::TxIdx idx, sim::Time t) {
      const auto it = tx_elements_.find(idx);
      if (it == tx_elements_.end()) return;
      for (const auto eid : it->second) recorder_->on_mempool_arrival(eid, node, t);
    };
  }
  ledger_ = std::make_unique<ledger::CometbftSim>(*sim_, *net_, cpus_, lcfg,
                                                  std::move(hooks));
  for (const auto node : scenario_.byz_silent_proposers) {
    ledger::LedgerByzantineConfig b;
    b.silent_proposer = true;
    ledger_->set_byzantine(node, b);
  }

  // --- servers ---
  core::ServerContext ctx;
  ctx.sim = sim_.get();
  ctx.batch_exchange = batch_exchange_.get();
  ctx.ledger = ledger_.get();
  ctx.pki = pki_.get();
  ctx.cpus = &cpus_;
  ctx.recorder = recorder_.get();
  ctx.params = &params_;
  if (scenario_.per_element_metrics) {
    ctx.register_tx_elements = [this](ledger::TxIdx idx,
                                      const std::vector<core::ElementId>& ids) {
      if (!ids.empty()) tx_elements_.emplace(idx, ids);
    };
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    std::unique_ptr<core::SetchainServer> s;
    switch (scenario_.algorithm) {
      case Algorithm::kVanilla:
        s = std::make_unique<core::VanillaServer>(ctx, i);
        break;
      case Algorithm::kCompresschain:
        s = std::make_unique<core::CompresschainServer>(ctx, i);
        break;
      case Algorithm::kHashchain: {
        auto h = std::make_unique<core::HashchainServer>(ctx, i);
        batch_exchange_->attach(*h);
        s = std::move(h);
        break;
      }
    }
    ledger_->on_new_block(i, [p = s.get()](const ledger::Block& b) { p->on_new_block(b); });
    servers_.push_back(std::move(s));
  }
  for (const auto node : scenario_.byz_refuse_batch) {
    auto b = servers_[node]->byzantine();
    b.refuse_batch_service = true;
    servers_[node]->set_byzantine(b);
  }
  for (const auto node : scenario_.byz_corrupt_proofs) {
    auto b = servers_[node]->byzantine();
    b.corrupt_proofs = true;
    servers_[node]->set_byzantine(b);
  }
  for (const auto node : scenario_.byz_fake_hashes) {
    auto b = servers_[node]->byzantine();
    b.fake_hash_batches = true;
    servers_[node]->set_byzantine(b);
  }

  // --- clients (one per node, rate split evenly, like the paper) ---
  // Each rate-driver fronts the whole cluster through the quorum facade:
  // primary = its co-located server, broadcasting instead when the scenario
  // asks for duplicate-to-all Byzantine clients.
  const auto policy = scenario_.clients_duplicate_to_all ? api::WritePolicy::kAll
                                                         : api::WritePolicy::kPrimary;
  for (std::uint32_t i = 0; i < n; ++i) {
    core::SetchainClient::Config ccfg;
    ccfg.rate_el_per_s = scenario_.sending_rate / static_cast<double>(n);
    ccfg.add_duration = scenario_.add_duration;
    ccfg.invalid_fraction = scenario_.client_invalid_fraction;
    if (scenario_.track_ids) {
      ccfg.accepted_sink = &accepted_valid_ids_;
      ccfg.created_sink = &created_ids_;
    }
    clients_.push_back(std::make_unique<core::SetchainClient>(
        *sim_, n + i, make_client(policy, i), *factory_, recorder_.get(), ccfg,
        scenario_.seed));
  }

  // --- crash/restart schedule ---
  // The fault layer handles the *network* face of a crash (messages to and
  // from a down node are lost); these events drive the *process* face: the
  // server refuses service, loses its collector, and — on a wiped restart —
  // rebuilds its consolidated state by replaying the ledger. Events are
  // sorted chronologically (restart before crash on ties, so back-to-back
  // windows hand over cleanly) — the plan's list order must not matter.
  struct CrashEvent {
    sim::Time at;
    bool is_restart;
    std::uint32_t node;
    bool wipe;
  };
  std::vector<CrashEvent> crash_events;
  for (const auto& flt : scenario_.faults.faults) {
    if (flt.kind != sim::FaultKind::kCrash) continue;
    crash_events.push_back({flt.start, false, flt.from, flt.wipe_state});
    if (flt.heals()) crash_events.push_back({flt.end, true, flt.from, flt.wipe_state});
  }
  std::stable_sort(crash_events.begin(), crash_events.end(),
                   [](const CrashEvent& a, const CrashEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.is_restart && !b.is_restart;
                   });
  for (const auto& ev : crash_events) {
    if (ev.is_restart) {
      sim_->schedule_at(ev.at, [this, node = ev.node, wipe = ev.wipe] {
        const std::uint64_t resume =
            wipe ? 1 : servers_[node]->applied_height() + 1;
        servers_[node]->restart();
        ledger_->replay_range(node, resume);
      });
    } else {
      sim_->schedule_at(ev.at, [this, node = ev.node, wipe = ev.wipe] {
        servers_[node]->crash(wipe);
      });
    }
  }
}

api::QuorumClient Experiment::make_client(api::WritePolicy policy, std::size_t primary) {
  return api::make_quorum_client(servers_, *pki_, params_.f, params_.fidelity, policy,
                                 primary);
}

Experiment::~Experiment() = default;

bool Experiment::is_byzantine(std::uint32_t node) const {
  const auto in = [node](const std::vector<std::uint32_t>& v) {
    return std::find(v.begin(), v.end(), node) != v.end();
  };
  if (in(scenario_.byz_silent_proposers) || in(scenario_.byz_refuse_batch) ||
      in(scenario_.byz_corrupt_proofs) || in(scenario_.byz_fake_hashes)) {
    return true;
  }
  // Crash-faulted servers give no guarantees either (a healed crash usually
  // recovers fully — tests wanting to assert that inspect servers() direct).
  for (const auto& flt : scenario_.faults.faults) {
    if (flt.kind == sim::FaultKind::kCrash && flt.from == node) return true;
  }
  return false;
}

std::vector<core::SetchainServer*> Experiment::servers() {
  std::vector<core::SetchainServer*> out;
  for (auto& s : servers_) out.push_back(s.get());
  return out;
}

std::vector<const core::SetchainServer*> Experiment::correct_servers() const {
  std::vector<const core::SetchainServer*> out;
  for (std::uint32_t i = 0; i < scenario_.n; ++i) {
    if (!is_byzantine(i)) out.push_back(servers_[i].get());
  }
  return out;
}

void Experiment::run() {
  const auto t0 = std::chrono::steady_clock::now();
  ledger_->start();
  for (auto& c : clients_) c->start();
  sim_->run_until(scenario_.horizon);
  const auto t1 = std::chrono::steady_clock::now();
  wall_ms_ = std::chrono::duration<double, std::milli>(t1 - t0).count();
}

RunResult Experiment::result() const {
  RunResult r;
  r.elements_added = recorder_->added().total();
  r.elements_committed = recorder_->committed().total();
  r.epochs = recorder_->epochs_consolidated();
  r.blocks = ledger_->height();
  // "Average throughput achieved up to 50 s" (Table 2). When a run uses a
  // shortened add window (bench quick mode), the window shrinks with it.
  const sim::Time window = std::min(scenario_.add_duration, sim::from_seconds(50));
  r.avg_throughput_50s =
      window > 0 ? static_cast<double>(recorder_->committed().count_until(window)) /
                       sim::to_seconds(window)
                 : 0.0;
  if (const auto& ev = recorder_->committed().events(); !ev.empty()) {
    const double span = sim::to_seconds(ev.back().t);
    if (span > 0) {
      r.sustained_throughput =
          static_cast<double>(recorder_->committed().total()) / span;
    }
  }
  r.efficiency_50 = recorder_->efficiency_at(sim::from_seconds(50));
  r.efficiency_75 = recorder_->efficiency_at(sim::from_seconds(75));
  r.efficiency_100 = recorder_->efficiency_at(sim::from_seconds(100));
  r.measured_compress_ratio = measured_ratio_;
  r.sim_seconds = sim::to_seconds(sim_->now());
  r.wall_ms = wall_ms_;
  r.events = sim_->executed_events();
  r.net_messages = net_->messages_sent();
  r.net_bytes = net_->bytes_sent();
  r.net_dropped = net_->messages_dropped();
  return r;
}

RunResult run_scenario(const Scenario& scenario) {
  Experiment e(scenario);
  e.run();
  return e.result();
}

}  // namespace setchain::runner
