// setchain_loadgen: open-loop load generator for live Setchain clusters.
//
// Drives thousands of concurrent client sessions (one epoll loop, one
// thread) against either a self-booted in-process cluster (--nodes N) or an
// external one (--node host:port per daemon), at a target arrival rate that
// does NOT slow down when the cluster does — shed arrivals and queue peaks
// are reported instead, so overload is measurable rather than hidden.
//
//   # 2000 open-loop rollup clients against a self-booted 4-node consensus
//   # cluster, 20 s at 1500 adds/s, JSON trajectory to BENCH_load.json:
//   ./setchain_loadgen --workload rollup --sessions 2000
//       --rate 1500 --duration-s 20 --json BENCH_load.json --check
//
//   # Rate curve (one phase per rate, each --duration-s long):
//   ./setchain_loadgen --rates 500,1000,2000 --duration-s 10
//
// Workloads: kv (opaque signed puts, Arbitrum-like sizes) or rollup (L2
// token txs + operator epoch commitments + fraud-proof window; see
// src/workload/rollup.hpp). --dishonest-operator makes the rollup operator
// corrupt one commitment — with --check, the run fails unless the verifier
// proves the fraud inside the window.
//
// --check exit codes: 0 healthy, 1 a health assertion failed, 2 bad usage.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/element.hpp"
#include "crypto/pki.hpp"
#include "load/arrival.hpp"
#include "load/fleet.hpp"
#include "load/local_cluster.hpp"
#include "load/report.hpp"
#include "net/tcp.hpp"
#include "runner/scenario.hpp"
#include "workload/arbitrum_like.hpp"
#include "workload/rollup.hpp"

namespace {

using namespace setchain;

struct Options {
  std::uint32_t nodes = 4;           // self-boot node count
  std::vector<load::Target> extern_nodes;  // non-empty = external cluster
  std::uint32_t sessions = 64;
  std::uint32_t window = 8;
  std::vector<double> rates = {0};   // one phase per rate; 0 = closed loop
  double duration_s = 5.0;
  load::ArrivalKind arrival = load::ArrivalKind::kPoisson;
  std::string workload = "kv";
  runner::Algorithm algo = runner::Algorithm::kHashchain;
  std::uint64_t seed = 42;
  std::uint32_t fraud_window = 64;
  bool dishonest = false;
  double settle_s = 20.0;
  std::string json_path;
  bool check = false;
  bool smoke = false;
};

bool parse_rates(const std::string& s, std::vector<double>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    try {
      out.push_back(std::stod(s.substr(pos, comma - pos)));
    } catch (...) {
      return false;
    }
    pos = comma + 1;
  }
  return !out.empty();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--nodes N | --node host:port ...] [--sessions S]\n"
      "  [--window W] [--rate R | --rates r1,r2,...]\n"
      "  [--arrival poisson|uniform|burst] [--duration-s D] [--workload kv|rollup]\n"
      "  [--algo vanilla|compresschain|hashchain]\n"
      "  [--seed N] [--fraud-window E] [--dishonest-operator] [--settle-s S]\n"
      "  [--json PATH] [--check] [--smoke]\n",
      argv0);
  return 2;
}

struct HealthCheck {
  bool ok = true;
  std::vector<std::string> failures;
  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      failures.push_back(what);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--nodes") opt.nodes = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--node") {
      std::string host;
      std::uint16_t port = 0;
      if (!net::parse_host_port(next(), host, port)) return usage(argv[0]);
      opt.extern_nodes.push_back(load::Target{host, port});
    } else if (a == "--sessions") opt.sessions = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--window") opt.window = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--rate") opt.rates = {std::stod(next())};
    else if (a == "--rates") {
      if (!parse_rates(next(), opt.rates)) return usage(argv[0]);
    } else if (a == "--arrival") {
      const std::string k = next();
      if (k == "poisson") opt.arrival = load::ArrivalKind::kPoisson;
      else if (k == "uniform") opt.arrival = load::ArrivalKind::kUniform;
      else if (k == "burst") opt.arrival = load::ArrivalKind::kBurst;
      else return usage(argv[0]);
    } else if (a == "--duration-s") opt.duration_s = std::stod(next());
    else if (a == "--workload") {
      opt.workload = next();
      if (opt.workload != "kv" && opt.workload != "rollup") return usage(argv[0]);
    } else if (a == "--algo") {
      const auto algo = runner::parse_algorithm(next());
      if (!algo) return usage(argv[0]);
      opt.algo = *algo;
    } else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--fraud-window") opt.fraud_window = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--dishonest-operator") opt.dishonest = true;
    else if (a == "--settle-s") opt.settle_s = std::stod(next());
    else if (a == "--json") opt.json_path = next();
    else if (a == "--check") opt.check = true;
    else if (a == "--smoke") {
      opt.smoke = true;
      opt.check = true;
      opt.nodes = 4;
      opt.sessions = 32;
      opt.rates = {300};
      opt.duration_s = 3.0;
      opt.workload = "rollup";
    } else {
      std::fprintf(stderr, "unknown arg %s\n", a.c_str());
      return usage(argv[0]);
    }
  }

  const bool self_boot = opt.extern_nodes.empty();
  const std::uint32_t n = self_boot
                              ? opt.nodes
                              : static_cast<std::uint32_t>(opt.extern_nodes.size());
  if (n == 0 || opt.sessions == 0) return usage(argv[0]);

  // Shared deployment parameters (must match the daemons in external mode).
  net::NodeHostConfig ncfg;
  ncfg.n = n;
  ncfg.f = (n - 1) / 3;
  ncfg.algorithm = opt.algo;
  ncfg.seed = opt.seed;
  ncfg.collector_limit = 64;
  ncfg.collector_timeout = sim::from_millis(50);
  ncfg.block_interval = sim::from_millis(50);
  ncfg.sync_interval = sim::from_millis(400);
  const std::uint64_t cluster = net::NodeHost::cluster_id_of(ncfg);

  crypto::Pki pki(ncfg.seed);
  for (crypto::ProcessId p = 0; p < ncfg.n + ncfg.client_slots; ++p) {
    pki.register_process(p);
  }

  // Pre-generate (and pre-sign) the element supply outside the measured
  // window, sized to the offered schedule plus slack. The cap still covers
  // a 5-minute phase schedule at 1500 el/s (scripts/durable_soak.sh).
  double offered_total = 0;
  for (const double r : opt.rates) {
    offered_total += (r > 0 ? r : 20'000.0) * opt.duration_s;
  }
  const std::size_t budget = std::min<std::size_t>(
      600'000, static_cast<std::size_t>(offered_total * 1.3) + 1024);

  std::vector<core::Element> kv_pool;
  workload::rollup::TxPool tx_pool;
  const bool rollup = opt.workload == "rollup";
  if (rollup) {
    workload::rollup::TxPoolConfig pc;
    pc.sessions = opt.sessions;
    pc.budget = budget;
    pc.first_client = ncfg.n;
    // Last two client slots are reserved for the operator/verifier agents.
    pc.client_span = ncfg.client_slots > 2 ? ncfg.client_slots - 2 : 1;
    pc.seed = opt.seed;
    tx_pool = workload::rollup::build_tx_pool(pc, pki);
  } else {
    workload::ArbitrumLikeGenerator gen(opt.seed ^ 0xBE7C4ULL);
    core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
    kv_pool.reserve(budget);
    for (std::size_t s = 0; s < budget; ++s) {
      kv_pool.push_back(factory.make(ncfg.n, s));
    }
  }

  std::unique_ptr<load::LocalCluster> local;
  std::vector<load::Target> targets = opt.extern_nodes;
  if (self_boot) {
    local = std::make_unique<load::LocalCluster>(ncfg);
    local->start();
    targets = local->targets();
    // Let the server mesh dial before load starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }

  load::FleetConfig fc;
  fc.targets = targets;
  fc.cluster = cluster;
  fc.sessions = opt.sessions;
  fc.window = opt.window;
  load::LoadFleet fleet(fc);
  const std::uint32_t connected = fleet.connect();

  std::unique_ptr<workload::rollup::RollupHarness> harness;
  if (rollup) {
    workload::rollup::RollupConfig rc;
    rc.f = ncfg.f;
    rc.fraud_window = opt.fraud_window;
    rc.dishonest = opt.dishonest;
    rc.settle_timeout_s = opt.settle_s;
    rc.operator_client = ncfg.n + ncfg.client_slots - 2;
    rc.verifier_client = ncfg.n + ncfg.client_slots - 1;
    harness = std::make_unique<workload::rollup::RollupHarness>(
        targets, cluster, pki, tx_pool, rc);
    harness->start();
  }

  load::PooledElementSource source(rollup ? tx_pool.elements : kv_pool,
                                   opt.sessions);
  std::vector<load::PhaseStats> phases;
  for (const double rate : opt.rates) {
    load::ArrivalConfig ac;
    ac.kind = opt.arrival;
    ac.rate = rate;
    ac.seed = opt.seed + phases.size();
    phases.push_back(fleet.run_phase(source, ac, opt.duration_s));
    // One progress line per phase, as it ends (the JSON report comes last).
    const load::PhaseStats& ph = phases.back();
    std::fprintf(stderr,
                 "setchain_loadgen phase %zu: offered=%llu acked=%llu "
                 "ack_p50_ms=%.1f ack_p99_ms=%.1f\n",
                 phases.size() - 1, static_cast<unsigned long long>(ph.offered),
                 static_cast<unsigned long long>(ph.acked),
                 static_cast<double>(ph.latency_us.percentile(0.50)) / 1000.0,
                 static_cast<double>(ph.latency_us.percentile(0.99)) / 1000.0);
  }
  const load::ProcSample proc = load::sample_proc();

  workload::rollup::RollupReport rollup_report;
  workload::rollup::RollupConfig rollup_cfg;
  if (harness != nullptr) {
    rollup_cfg.dishonest = opt.dishonest;
    rollup_cfg.fraud_window = opt.fraud_window;
    rollup_report = harness->finish();
  }
  fleet.close();

  net::ITransport::Counters transport{};
  if (local != nullptr) transport = local->counters_total();
  if (local != nullptr) local->shutdown();

  // Aggregate + health verdict.
  load::PhaseStats total;
  for (const auto& ph : phases) {
    total.offered += ph.offered;
    total.shed += ph.shed;
    total.sent += ph.sent;
    total.acked += ph.acked;
    total.accepted += ph.accepted;
    total.io_errors += ph.io_errors;
    total.decode_errors += ph.decode_errors;
    total.pending_end += ph.pending_end;
    total.in_flight_end += ph.in_flight_end;
    total.wall_s += ph.wall_s;
    total.latency_us.merge(ph.latency_us);
  }

  HealthCheck health;
  health.require(connected == opt.sessions,
                 "sessions_connected == sessions");
  health.require(!phases.empty() && phases.back().sessions_alive == opt.sessions,
                 "sessions_alive == sessions");
  health.require(total.decode_errors == 0, "fleet decode_errors == 0");
  health.require(total.io_errors == 0, "fleet io_errors == 0");
  health.require(total.shed == 0, "no shed arrivals");
  health.require(total.acked > 0 && total.accepted > 0, "adds acked+accepted");
  if (local != nullptr) {
    health.require(transport.decode_errors == 0, "transport decode_errors == 0");
    health.require(transport.send_drops == 0, "transport send_drops == 0");
  }
  if (harness != nullptr) {
    health.require(rollup_report.ok(rollup_cfg), "rollup verdict ok");
  }

  load::JsonWriter w;
  w.begin_object();
  w.kv("bench", "loadgen");
  w.key("config");
  w.begin_object();
  w.kv("nodes", n);
  w.kv("self_boot", self_boot);
  w.kv("sessions", opt.sessions);
  w.kv("window", opt.window);
  w.kv("max_pending", fc.max_pending);
  w.kv("workload", opt.workload);
  w.kv("arrival", load::arrival_kind_name(opt.arrival));
  w.kv("algo", runner::algorithm_name(opt.algo));
  w.kv("seed", opt.seed);
  w.kv("duration_s_per_phase", opt.duration_s);
  w.key("rates");
  w.begin_array();
  for (const double r : opt.rates) w.value(r);
  w.end_array();
  if (rollup) {
    w.kv("fraud_window", opt.fraud_window);
    w.kv("dishonest_operator", opt.dishonest);
  }
  w.end_object();
  w.key("phases");
  w.begin_array();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const std::string label = "phase" + std::to_string(i);
    load::append_phase_json(w, label.c_str(), opt.rates[i], phases[i]);
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.kv("offered", total.offered);
  w.kv("shed", total.shed);
  w.kv("sent", total.sent);
  w.kv("acked", total.acked);
  w.kv("accepted", total.accepted);
  w.kv("io_errors", total.io_errors);
  w.kv("decode_errors", total.decode_errors);
  w.kv("pending_end", total.pending_end);
  w.kv("in_flight_end", total.in_flight_end);
  w.kv("acked_per_sec",
       total.wall_s > 0 ? static_cast<double>(total.acked) / total.wall_s : 0.0);
  w.key("latency_ms");
  w.begin_object();
  w.kv("p50", static_cast<double>(total.latency_us.percentile(0.50)) / 1000.0);
  w.kv("p90", static_cast<double>(total.latency_us.percentile(0.90)) / 1000.0);
  w.kv("p99", static_cast<double>(total.latency_us.percentile(0.99)) / 1000.0);
  w.kv("p999", static_cast<double>(total.latency_us.percentile(0.999)) / 1000.0);
  w.kv("max", static_cast<double>(total.latency_us.max()) / 1000.0);
  w.end_object();
  w.end_object();
  if (local != nullptr) {
    // Server-side transport counters: send_drops_client + send_queue_peak
    // tell server overload apart from server slowness (a slow server grows
    // latency; an overloaded one drops acks into a full queue).
    w.key("transport");
    w.begin_object();
    w.kv("frames_tx", transport.frames_sent);
    w.kv("frames_rx", transport.frames_received);
    w.kv("send_drops", transport.send_drops);
    w.kv("send_drops_client", transport.send_drops_client);
    w.kv("send_queue_peak", transport.send_queue_peak);
    w.kv("decode_errors", transport.decode_errors);
    w.kv("reconnects", transport.reconnects);
    w.end_object();
  }
  w.key("process");
  w.begin_object();
  w.kv("threads_live", proc.threads);
  w.kv("vm_hwm_kb", proc.vm_hwm_kb);
  w.end_object();
  if (harness != nullptr) {
    const auto& rr = rollup_report;
    w.key("rollup");
    w.begin_object();
    w.kv("last_epoch", rr.last_epoch);
    w.kv("epochs_executed", rr.epochs_executed);
    w.kv("txs_executed", rr.txs_executed);
    w.kv("txs_voided", rr.txs_voided);
    w.kv("commitments_posted", rr.commitments_posted);
    w.kv("commitments_consolidated", rr.commitments_consolidated);
    w.kv("commitments_ok", rr.commitments_ok);
    w.kv("mismatches", rr.mismatches);
    w.kv("fraud_proofs_posted", rr.fraud_proofs_posted);
    w.kv("fraud_proofs_consolidated", rr.fraud_proofs_consolidated);
    w.kv("frauds_caught_in_window", rr.frauds_caught_in_window);
    w.kv("max_fraud_detect_epochs", rr.max_fraud_detect_epochs);
    w.kv("roots_agree", rr.roots_agree);
    w.kv("ok", rr.ok(rollup_cfg));
    w.end_object();
  }
  w.key("check");
  w.begin_object();
  w.kv("enabled", opt.check);
  w.kv("ok", health.ok);
  w.key("failures");
  w.begin_array();
  for (const auto& f : health.failures) w.value(f);
  w.end_array();
  w.end_object();
  w.end_object();
  load::emit_report(w.str(), opt.json_path);

  if (opt.check && !health.ok) {
    for (const auto& f : health.failures) {
      std::fprintf(stderr, "loadgen check FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  if (opt.check) std::fprintf(stderr, "loadgen check OK\n");
  return 0;
}
