// commit_bench: add -> f+1 epoch-proof commit latency on a live, durable,
// in-process 4-node consensus cluster over real TCP (see NOTES.md).
//
//   commit_bench --workload hashchain|vanilla|compresschain-reads
//                --seed N --seconds S --trace 0|1
//                [--data-root DIR] [--trace-dir DIR]
//   commit_bench --self-check [--data-root DIR] [--trace-dir DIR]
//
// The S measured seconds are split into phases of about kPhaseSeconds, each
// on a freshly booted cluster; commit percentiles are taken per phase and
// averaged, other samples are pooled across phases. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1. A
// correctness-gate violation prints the violations to stderr, no metrics,
// and exits 1.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "api/quorum_client.hpp"
#include "cluster.hpp"
#include "codec/lz77.hpp"
#include "core/batch.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "light_client.hpp"
#include "load/arrival.hpp"
#include "load/fleet.hpp"
#include "net/remote_node.hpp"
#include "net/wire.hpp"
#include "util/latency_recorder.hpp"
#include "workload/arbitrum_like.hpp"

namespace commitbench {
namespace {

constexpr std::uint32_t kSessions = 3;  // pinned to nodes 0..2; node 3 serves reads
constexpr std::uint32_t kLightClientId = kN + kSessions;
constexpr std::uint32_t kProbeClientId = kN + kSessions + 1;
constexpr std::uint32_t kReaderClientId = kN + kSessions + 2;
constexpr unsigned kGenThreads = 4;
constexpr double kDrainDeadlineS = 30.0;
/// History-dependent costs (O(state) epoch snapshots, O(history) reads)
/// grow through a phase; a fixed phase length keeps every run measuring
/// the same regime whatever --seconds is (NOTES.md).
constexpr double kPhaseSeconds = 8.0;

struct Workload {
  const char* name;
  runner::Algorithm algo;
  double rate;            ///< offered adds/s (open-loop Poisson)
  double snapshot_per_s;  ///< light-client full snapshot() reads/s
};

// Why these three and these rates: NOTES.md.
constexpr Workload kWorkloads[] = {
    {"hashchain", runner::Algorithm::kHashchain, 1500, 0},
    {"vanilla", runner::Algorithm::kVanilla, 1500, 0},
    {"compresschain-reads", runner::Algorithm::kCompresschain, 2500, 10},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_check = false;
  std::string data_root = ".bench_build/commitbench/data";
  std::string trace_dir = ".bench_build/commitbench";
};

// ------------------------------------------------------------------ helpers

/// Linear interpolation between closest ranks; +inf propagates.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::uint64_t proc_status_kb(const char* key) {
  std::uint64_t v = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const std::size_t klen = std::strlen(key);
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, key, klen) == 0) {
        v = std::strtoull(line + klen, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
  }
  return v;
}

net::NodeHostConfig node_config(const Workload& w, std::uint64_t seed) {
  net::NodeHostConfig c;
  c.n = kN;
  c.f = kF;
  c.algorithm = w.algo;
  c.ledger_mode = runner::LedgerMode::kConsensus;
  c.seed = seed;
  // setchain_loadgen's node settings.
  c.collector_limit = 64;
  c.collector_timeout = sim::from_millis(50);
  c.block_interval = sim::from_millis(50);
  c.sync_interval = sim::from_millis(400);
  c.snapshot_epochs = 8;  // the setchain_node daemon default
  return c;
}

/// Arrival offsets (ns from phase start) the fleet replays from the same
/// config. While no arrival is shed and every session lives, the fleet
/// deals arrival i to session i % kSessions, which sends pool[i], so
/// offsets[i] is pool[i]'s scheduled time (the gate checks both).
std::vector<std::int64_t> schedule(const load::ArrivalConfig& ac, double seconds) {
  load::ArrivalProcess ap(ac);
  std::vector<std::int64_t> out;
  for (;;) {
    const double t = ap.next();
    out.push_back(static_cast<std::int64_t>(t * 1e9));
    if (t >= seconds) break;  // one past the end
  }
  return out;
}

/// Signed elements for pool slots [0, count): slot i belongs to session
/// i % kSessions (client id kN + session), generated on kGenThreads threads
/// with per-thread seeds so the pool depends only on (seed, count).
std::vector<core::Element> make_pool(std::size_t count, std::uint64_t seed,
                                     crypto::Pki& pki) {
  std::vector<core::Element> pool(count);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kGenThreads; ++t) {
    workers.emplace_back([&, t] {
      workload::ArbitrumLikeGenerator gen(seed * 0x9E3779B97F4A7C15ULL + t);
      core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
      for (std::size_t i = count * t / kGenThreads; i < count * (t + 1) / kGenThreads; ++i) {
        pool[i] = factory.make(kN + static_cast<std::uint32_t>(i % kSessions), i / kSessions);
      }
    });
  }
  for (auto& w : workers) w.join();
  return pool;
}

/// load::PooledElementSource's layout (session s sends pool[s], pool[s+3],
/// ...) plus a send stamp per element.
class StampedSource final : public load::IElementSource {
 public:
  explicit StampedSource(const std::vector<core::Element>& pool)
      : pool_(pool), cursor_(kSessions), sent_ns_(pool.size(), -1) {
    for (std::uint32_t s = 0; s < kSessions; ++s) cursor_[s] = s;
  }
  const core::Element* next(std::uint32_t session) override {
    const std::size_t i = cursor_[session % kSessions];
    if (i >= pool_.size()) return nullptr;
    cursor_[session % kSessions] += kSessions;
    sent_ns_[i] = now_ns();
    ++sent_;
    return &pool_[i];
  }
  std::int64_t sent_ns(std::size_t i) const { return sent_ns_[i]; }
  std::uint64_t sent() const { return sent_; }

 private:
  const std::vector<core::Element>& pool_;
  std::vector<std::size_t> cursor_;
  std::vector<std::int64_t> sent_ns_;
  std::uint64_t sent_ = 0;
};

/// One phase's inputs, generated and signed before any clock starts.
struct PhaseInputs {
  load::ArrivalConfig arrival;
  double seconds = 0;
  std::vector<std::int64_t> offsets;
  std::vector<core::Element> pool;
  core::Element probe;
};

// ---------------------------------------------------------------- set-up

/// One booted deployment: the durable cluster, the light client's
/// connection to node 3, and the connected add fleet. Members are destroyed
/// fleet first, cluster last.
struct Deployment {
  std::unique_ptr<DurableCluster> cluster;
  std::unique_ptr<net::RemoteNode> reader;
  std::unique_ptr<load::LoadFleet> fleet;
};

std::unique_ptr<net::RemoteNode> connect_node(const DurableCluster& c, std::uint32_t node,
                                              std::uint32_t client_id) {
  net::TcpRpcChannel::Config rc;
  rc.port = c.port(node);
  rc.client_id = client_id;
  rc.cluster = c.cluster_id();
  return std::make_unique<net::RemoteNode>(std::make_unique<net::TcpRpcChannel>(rc), node);
}

/// Boot, wait for the mesh (a probe element added at node 0 becomes an
/// epoch at node 3), connect the sessions. Returns set-up seconds, or -1.
double boot(Deployment& d, const net::NodeHostConfig& cfg, const std::string& dir,
            bool trace, const core::Element& probe, std::string* error) {
  const std::int64_t t0 = now_ns();
  d.cluster = std::make_unique<DurableCluster>(cfg, dir, trace);
  if (!d.cluster->start(error)) return -1;
  if (!connect_node(*d.cluster, 0, kProbeClientId)->add(probe)) {
    *error = "probe add refused";
    return -1;
  }
  d.reader = connect_node(*d.cluster, kN - 1, kLightClientId);
  const std::int64_t deadline = t0 + 20'000'000'000;
  while (d.reader->epoch() < 1) {
    if (now_ns() > deadline) {
      *error = "cluster did not form an epoch within 20 s";
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  load::FleetConfig fc;
  fc.targets = d.cluster->targets(kSessions);
  fc.cluster = d.cluster->cluster_id();
  fc.sessions = kSessions;
  fc.window = 256;
  fc.max_pending = 4096;
  d.fleet = std::make_unique<load::LoadFleet>(fc);
  if (d.fleet->connect() != kSessions) {
    *error = "add sessions did not connect";
    return -1;
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// -------------------------------------------------------------- the gate

/// Every committed epoch's accepted proofs must be f+1 distinct valid
/// signatures over the epoch hash the final quorum read agreed on.
std::vector<std::string> check_commit_proofs(const std::vector<LightClient::Epoch>& epochs,
                                             const api::QuorumClient::View& view,
                                             const crypto::Pki& pki) {
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const auto& ep = epochs[i];
    if (ep.committed_ns < 0) continue;
    const std::string k = "epoch " + std::to_string(i + 1) + ": ";
    if (i >= view.history.size()) {
      bad.push_back(k + "committed but beyond the f+1 quorum view");
      continue;
    }
    const core::EpochHash& agreed = view.history[i].hash;
    if (ep.hash != agreed) bad.push_back(k + "committed hash differs from quorum hash");
    std::unordered_set<crypto::ProcessId> signers;
    for (const auto& p : ep.proofs) {
      if (p.epoch == i + 1 && p.server < kN &&
          core::valid_proof(p, agreed, pki, core::Fidelity::kFull)) {
        signers.insert(p.server);
      }
    }
    if (signers.size() < kF + 1) bad.push_back(k + "fewer than f+1 valid proofs");
  }
  return bad;
}

/// Open-loop accounting: the fleet identity offered == sent + shed +
/// pending_end, the harness's send stamps agree with the fleet's count, and
/// nothing commits that was not acked.
std::vector<std::string> check_accounting(const load::PhaseStats& st, std::uint64_t source_sent,
                                          std::uint64_t committed) {
  std::vector<std::string> bad;
  if (st.offered != st.sent + st.shed + st.pending_end) {
    bad.push_back("fleet identity offered == sent + shed + pending_end broken");
  }
  if (source_sent != st.sent) bad.push_back("element source and fleet disagree on sent");
  // A shed arrival or a dead session still advances the fleet's
  // round-robin, which would pair later elements with the wrong schedule
  // slot and misstate their latency.
  if (st.shed > 0) bad.push_back(std::to_string(st.shed) + " arrivals shed");
  if (st.sessions_alive != kSessions) bad.push_back("an add session died");
  if (committed > st.acked) bad.push_back("committed > acked");
  return bad;
}

void append(std::vector<std::string>& to, const std::vector<std::string>& from,
            const char* tag) {
  for (const auto& v : from) to.push_back(std::string(tag) + ": " + v);
}

// ---------------------------------------------------------------- phase

/// What one phase measured. Samples are pooled and sums added across
/// phases; the per-layer fields are filled by traced runs only.
struct PhaseResult {
  double setup_s = 0;
  load::PhaseStats st;
  std::uint64_t committed = 0;
  std::vector<double> commit_ms, lag_ms;
  std::vector<double> epoch_rpc_us, proofs_rpc_us, snapshot_rpc_us;
  std::uint64_t proofs_polls = 0, lc_epochs = 0;
  double server_cpu_ns = 0, pumps_ns = 0;  ///< whole window
  double load_ns = 0, all_ns = 0;          ///< load window, load + drain window

  std::array<double, kFrameClasses> busy_ns{};
  double add_frames = 0, handler_ns = 0, pump_load_ns = 0, pump_util_max = 0;
  std::vector<double> ack_to_epoch, epoch_to_commit;
  double epochs_in_load = 0, elem_epochs = 0, total_epochs = 0;
  double frames = 0, bytes = 0, drops = 0, queue_peak = 0, heights = 0;
  double fetches = 0, fetch_failed = 0, wal_bytes = 0, fsyncs = 0, snaps = 0;
  std::string trace_csv;
};

/// Boot a fresh cluster, drive one open-loop phase, drain until every
/// element's epoch is committed, then run the correctness gate. Returns 0,
/// or the exit code after printing what failed.
int measure_phase(const Options& opt, int phase, const net::NodeHostConfig& cfg,
                  const crypto::Pki& pki, const crypto::Pki& verify_pki,
                  const PhaseInputs& in, PhaseResult& r) {
  const Workload& w = *opt.workload;
  const auto& pool = in.pool;
  const auto& offsets = in.offsets;
  Deployment d;
  std::string err;
  r.setup_s = boot(d, cfg,
                   opt.data_root + "/run-" + std::to_string(::getpid()) + "-" +
                       std::to_string(phase),
                   opt.trace, in.probe, &err);
  if (r.setup_s < 0) {
    std::fprintf(stderr, "commit_bench: set-up failed: %s\n", err.c_str());
    return 2;
  }
  DurableCluster& cluster = *d.cluster;

  LightClient lc(*d.reader, verify_pki, w.snapshot_per_s);
  StampedSource source(pool);
  std::atomic<bool> lc_stop{false};

  std::vector<std::int64_t> pump0(kN), pump1(kN), pump2(kN);
  const std::int64_t proc0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  const std::int64_t main0 = thread_cpu_ns();
  for (std::uint32_t i = 0; i < kN; ++i) pump0[i] = cluster.pump_cpu_ns(i);
  const std::int64_t t_start = now_ns();

  std::thread lc_thread([&] { lc.run(lc_stop); });
  std::int64_t phase_t0 = 0, fleet_cpu = 0;
  std::thread fleet_thread([&] {
    const std::int64_t c0 = thread_cpu_ns();
    phase_t0 = now_ns();  // run_phase's own t0 follows within microseconds
    r.st = d.fleet->run_phase(source, in.arrival, in.seconds);
    fleet_cpu = thread_cpu_ns() - c0;
  });
  fleet_thread.join();
  const std::int64_t t_load_end = now_ns();
  for (std::uint32_t i = 0; i < kN; ++i) pump1[i] = cluster.pump_cpu_ns(i);
  const load::PhaseStats& st = r.st;

  lc.drain(st.accepted + 1);  // + the set-up probe
  const std::int64_t drain_deadline =
      now_ns() + static_cast<std::int64_t>(kDrainDeadlineS * 1e9);
  while (!lc.drained() && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  lc_stop.store(true);
  lc_thread.join();
  const std::int64_t t_drain_end = now_ns();
  for (std::uint32_t i = 0; i < kN; ++i) pump2[i] = cluster.pump_cpu_ns(i);
  const std::int64_t proc_cpu = clock_ns(CLOCK_PROCESS_CPUTIME_ID) - proc0;
  const std::int64_t main_cpu = thread_cpu_ns() - main0;

  // ---- final quorum read over all four nodes (pumps still live), once
  // every node has caught up with node 3: the same epoch count and f+1
  // proofs for the last epoch (each server proves epochs in order, so f+1
  // proofs for the last one imply f+1 for every earlier one).
  std::vector<std::unique_ptr<net::RemoteNode>> readers;
  std::vector<api::ISetchainNode*> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    readers.push_back(connect_node(cluster, i, kReaderClientId));
    nodes.push_back(readers.back().get());
  }
  const std::uint64_t last = lc.epochs().size();
  const auto caught_up = [&](const api::ISetchainNode* n) {
    return n->epoch() >= last && n->proofs_for_epoch(last).size() >= kF + 1;
  };
  while (now_ns() < drain_deadline && !std::all_of(nodes.begin(), nodes.end(), caught_up)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  api::QuorumClient qc = api::make_quorum_client(nodes, pki, kF, core::Fidelity::kFull);
  const api::QuorumClient::View view = qc.get();
  readers.clear();
  d.fleet->close();
  cluster.stop();

  // ---- map elements to epochs (one snapshot per node) and check the phase
  std::vector<const core::SetchainServer*> servers;
  for (std::uint32_t i = 0; i < kN; ++i) servers.push_back(&cluster.host(i).server());
  std::unordered_map<core::ElementId, std::uint64_t> epoch_of;
  for (const auto& rec : *servers[kN - 1]->get().history) {
    for (const core::ElementId id : rec.ids) epoch_of[id] = rec.number;
  }
  std::vector<core::ElementId> accepted_ids{in.probe.id};
  std::unordered_set<core::ElementId> created{in.probe.id};
  std::vector<std::size_t> sent_idx;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    created.insert(pool[i].id);
    if (source.sent_ns(i) >= 0) {
      sent_idx.push_back(i);
      accepted_ids.push_back(pool[i].id);
    }
  }
  const auto& epochs = lc.epochs();
  const auto commit_ns = [&](std::size_t i) -> std::int64_t {
    const auto it = epoch_of.find(pool[i].id);
    if (it == epoch_of.end() || it->second > epochs.size()) return -1;
    return epochs[it->second - 1].committed_ns;
  };
  for (const std::size_t i : sent_idx) r.committed += commit_ns(i) >= 0;

  std::vector<std::string> violations;
  append(violations, check_accounting(st, source.sent(), r.committed), "accounting");
  // Every element is valid and unique, so a refusal or a lost ack is a
  // failure of the run, and the sent set is exactly the accepted set.
  if (st.acked != st.sent || st.accepted != st.acked) {
    violations.push_back("fleet: " + std::to_string(st.sent - st.accepted) +
                         " valid unique adds not acked as accepted");
  }
  append(violations, core::check_safety(servers).violations, "safety");
  append(violations,
         core::check_liveness_quiescent(servers, accepted_ids, cluster.host(0).params(), pki)
             .violations,
         "liveness");
  append(violations, core::check_add_before_get(servers, created).violations,
         "add-before-get");
  append(violations, check_commit_proofs(epochs, view, verify_pki), "proofs");
  for (const std::size_t i : sent_idx) {
    if (source.sent_ns(i) < phase_t0 + offsets[i]) {
      violations.push_back("harness: element sent before its scheduled time");
      break;
    }
  }
  if (!lc.drained()) violations.push_back("drain: light client did not quiesce in time");
  if (r.committed != st.accepted) {
    violations.push_back("drain: " + std::to_string(st.accepted - r.committed) +
                         " accepted elements left uncommitted");
  }

  if (opt.self_check) {
    // The gate must catch each of these deliberate corruptions.
    auto forged = epochs;
    for (auto& ep : forged) {
      if (ep.committed_ns >= 0) {
        for (auto& p : ep.proofs) p.epoch_hash[0] ^= 1;
        break;
      }
    }
    auto short_created = created;
    if (!sent_idx.empty()) short_created.erase(pool[sent_idx.front()].id);
    auto extra_accepted = accepted_ids;
    extra_accepted.push_back(core::make_element_id(kProbeClientId, 1u << 20));
    load::PhaseStats skewed = st;
    ++skewed.offered;
    const bool caught =
        !check_commit_proofs(forged, view, verify_pki).empty() &&
        !core::check_add_before_get(servers, short_created).ok() &&
        !core::check_liveness_quiescent(servers, extra_accepted, cluster.host(0).params(), pki)
             .ok() &&
        !check_accounting(skewed, source.sent(), r.committed).empty();
    if (!caught) violations.push_back("self-check: a deliberate corruption passed the gate");
    if (r.committed == 0) violations.push_back("self-check: nothing committed");
  }
  if (!violations.empty()) {
    for (const auto& v : violations) std::fprintf(stderr, "GATE VIOLATION %s\n", v.c_str());
    return 1;
  }

  // ---- samples and sums
  for (const std::size_t i : sent_idx) {
    const std::int64_t sched = phase_t0 + offsets[i];
    const std::int64_t c = commit_ns(i);
    r.commit_ms.push_back(c < 0 ? INFINITY : static_cast<double>(c - sched) / 1e6);
    r.lag_ms.push_back(static_cast<double>(source.sent_ns(i) - sched) / 1e6);
  }
  r.epoch_rpc_us = lc.epoch_rpc_us();
  r.proofs_rpc_us = lc.proofs_rpc_us();
  r.snapshot_rpc_us = lc.snapshot_rpc_us();
  r.proofs_polls = lc.proofs_polls();
  r.lc_epochs = epochs.size();
  for (std::uint32_t i = 0; i < kN; ++i) r.pumps_ns += static_cast<double>(pump2[i] - pump0[i]);
  r.server_cpu_ns = static_cast<double>(proc_cpu - fleet_cpu - lc.cpu_ns() - main_cpu);
  r.load_ns = static_cast<double>(t_load_end - t_start);
  r.all_ns = static_cast<double>(t_drain_end - t_start);
  std::fprintf(stderr,
               "commit_bench %s phase %d: offered=%llu acked=%llu committed=%llu shed=%llu "
               "epochs=%zu setup=%.3fs commit p50/p99=%.1f/%.1f ms\n",
               w.name, phase, static_cast<unsigned long long>(st.offered),
               static_cast<unsigned long long>(st.acked),
               static_cast<unsigned long long>(r.committed),
               static_cast<unsigned long long>(st.shed), epochs.size(), r.setup_s,
               percentile(r.commit_ms, 0.5), percentile(r.commit_ms, 0.99));
  if (!opt.trace) return 0;

  // ---- per-layer sums (traced run)
  std::unordered_map<core::ElementId, std::int64_t> acked_at;
  for (std::uint32_t n = 0; n < kN; ++n) {
    for (const auto& a : cluster.trace(n).acks) acked_at.emplace(a.id, a.at_ns);
    for (const auto& s : cluster.trace(n).spans) {
      if (s.start_ns < t_start || s.start_ns >= t_load_end) continue;
      r.busy_ns[static_cast<std::size_t>(s.cls)] += static_cast<double>(s.cpu_ns);
      r.handler_ns += static_cast<double>(s.cpu_ns);
      r.add_frames += s.cls == FrameClass::kAdd;
    }
  }
  std::unordered_set<std::uint64_t> elem_epochs;
  for (const std::size_t i : sent_idx) {
    const auto ep = epoch_of.find(pool[i].id);
    const auto ak = acked_at.find(pool[i].id);
    if (ep == epoch_of.end() || ak == acked_at.end()) continue;
    const auto& e = epochs[ep->second - 1];
    elem_epochs.insert(ep->second);
    r.ack_to_epoch.push_back(static_cast<double>(e.visible_ns - ak->second) / 1e6);
    r.epoch_to_commit.push_back(static_cast<double>(e.committed_ns - e.visible_ns) / 1e6);
  }
  r.elem_epochs = static_cast<double>(elem_epochs.size());
  r.total_epochs = static_cast<double>(servers[kN - 1]->get().epoch);
  for (const auto& e : epochs) {
    r.epochs_in_load += e.visible_ns >= t_start && e.visible_ns < t_load_end;
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto c = cluster.counters(i);
    r.frames += static_cast<double>(c.frames_sent);
    r.bytes += static_cast<double>(c.bytes_sent);
    r.drops += static_cast<double>(c.send_drops);
    r.queue_peak = std::max(r.queue_peak, static_cast<double>(c.send_queue_peak));
    if (const auto* h = dynamic_cast<const core::HashchainServer*>(servers[i])) {
      r.fetches += static_cast<double>(h->fetches_started());
      r.fetch_failed += static_cast<double>(h->fetches_failed());
    }
    r.wal_bytes += static_cast<double>(cluster.storage(i).wal_counters().bytes_appended);
    r.fsyncs += static_cast<double>(cluster.storage(i).wal_counters().fsyncs);
    r.snaps += static_cast<double>(cluster.storage(i).snapshots_written());
    const double p = static_cast<double>(pump1[i] - pump0[i]);
    r.pump_load_ns += p;
    r.pump_util_max = std::max(r.pump_util_max, p / r.load_ns);
  }
  r.heights = static_cast<double>(cluster.host(0).ledger().height());

  // Spans, kept in memory until the run ends (times in ns from phase
  // start): element id/scheduled/sent/acked/visible/committed, one handler
  // span per frame, each pump thread's CPU clock at the phase boundaries.
  std::ostringstream tf;
  const auto rel = [&](std::int64_t t) { return t < 0 ? -1 : t - t_start; };
  for (const std::size_t i : sent_idx) {
    const auto ep = epoch_of.find(pool[i].id);
    const auto ak = acked_at.find(pool[i].id);
    const LightClient::Epoch* e = ep != epoch_of.end() ? &epochs[ep->second - 1] : nullptr;
    tf << phase << ",element," << pool[i].id << ',' << rel(phase_t0 + offsets[i]) << ','
       << rel(source.sent_ns(i)) << ',' << (ak != acked_at.end() ? rel(ak->second) : -1) << ','
       << (e ? rel(e->visible_ns) : -1) << ',' << (e ? rel(e->committed_ns) : -1) << '\n';
  }
  for (std::uint32_t n = 0; n < kN; ++n) {
    for (const auto& s : cluster.trace(n).spans) {
      tf << phase << ",handler," << n << ',' << frame_class_name(s.cls) << ','
         << rel(s.start_ns) << ',' << s.cpu_ns << ",,\n";
    }
    tf << phase << ",pump_cpu," << n << ',' << pump0[n] << ',' << pump1[n] << ',' << pump2[n]
       << ",,\n";
  }
  r.trace_csv = tf.str();
  return 0;
}

// --------------------------------------------------------------- replay

/// Public-call timings on the run's own elements (traced runs only).
struct Replay {
  double verify_us = 0, verify_batch_us_per_sig = 0;
  double lz77_ns_per_byte = 0, lz77_ratio = 0;
  double epoch_hash_us = 0, wire_add_roundtrip_us = 0;
};

Replay replay(const std::vector<core::Element>& es, const crypto::Pki& pki) {
  Replay r;
  const std::size_t m = std::min<std::size_t>(es.size(), 256);
  const std::vector<core::Element> batch64(es.begin(),
                                           es.begin() + std::min<std::size_t>(m, 64));
  std::size_t ok = 0;  // consumed below so no timed call can be elided
  std::int64_t t = now_ns();
  for (std::size_t i = 0; i < m; ++i) ok += core::valid_element(es[i], pki, core::Fidelity::kFull);
  r.verify_us = static_cast<double>(now_ns() - t) / 1e3 / static_cast<double>(m);

  constexpr int kReps = 4;
  t = now_ns();
  for (int i = 0; i < kReps; ++i) {
    const auto v = core::valid_elements(batch64, pki, core::Fidelity::kFull);
    ok += static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
  }
  r.verify_batch_us_per_sig = static_cast<double>(now_ns() - t) / 1e3 /
                              static_cast<double>(kReps * batch64.size());

  core::Batch b;
  b.elements = batch64;
  const codec::Bytes raw = core::serialize_batch(b);
  std::size_t packed = 0;
  t = now_ns();
  for (int i = 0; i < kReps; ++i) packed = codec::lz77_compress(raw).size();
  r.lz77_ns_per_byte =
      static_cast<double>(now_ns() - t) / static_cast<double>(kReps * raw.size());
  r.lz77_ratio = static_cast<double>(raw.size()) / static_cast<double>(packed);

  std::vector<std::pair<core::ElementId, std::uint64_t>> ids;
  for (const auto& e : batch64) {
    ids.emplace_back(e.id, core::element_digest(e, core::Fidelity::kFull));
  }
  std::sort(ids.begin(), ids.end());
  constexpr int kHashReps = 32;
  t = now_ns();
  for (int i = 0; i < kHashReps; ++i) {
    ok += core::epoch_hash(static_cast<std::uint64_t>(i) + 1, ids, core::Fidelity::kFull)[0] & 1u;
  }
  r.epoch_hash_us = static_cast<double>(now_ns() - t) / 1e3 / kHashReps;

  t = now_ns();
  for (std::size_t i = 0; i < m; ++i) {
    net::wire::AddRequest req;
    req.req_id = i + 1;
    req.element = es[i];
    net::wire::FrameReader reader;
    reader.feed(net::wire::encode_frame(net::wire::MsgType::kAddRequest,
                                        net::wire::encode_add_request(req)));
    net::wire::Frame f;
    if (reader.next(f) != net::wire::DecodeStatus::kOk) continue;
    const auto back = net::wire::parse_add_request(f.payload);
    net::wire::AddResponse resp;
    resp.req_id = back ? back->req_id : 0;
    resp.accepted = back.has_value();
    const auto echoed = net::wire::parse_add_response(net::wire::encode_add_response(resp));
    ok += echoed && echoed->accepted;
  }
  r.wire_add_roundtrip_us = static_cast<double>(now_ns() - t) / 1e3 / static_cast<double>(m);
  if (ok == 0) std::fprintf(stderr, "replay: nothing verified\n");
  return r;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ run

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  const net::NodeHostConfig cfg = node_config(w, opt.seed);
  crypto::Pki pki(opt.seed);
  for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) pki.register_process(p);
  crypto::Pki verify_pki(opt.seed);  // the light client's: servers' keys only
  for (crypto::ProcessId p = 0; p < kN; ++p) verify_pki.register_process(p);

  // ---- inputs of every phase, generated and signed before any clock starts
  const int phases = std::max(1, static_cast<int>(std::lround(opt.seconds / kPhaseSeconds)));
  std::vector<PhaseInputs> inputs(static_cast<std::size_t>(phases));
  for (int p = 0; p < phases; ++p) {
    PhaseInputs& in = inputs[static_cast<std::size_t>(p)];
    const std::uint64_t seed = opt.seed * 1000 + static_cast<std::uint64_t>(p);
    in.arrival.kind = load::ArrivalKind::kPoisson;
    in.arrival.rate = w.rate;
    in.arrival.seed = seed;
    in.seconds = opt.seconds / phases;
    in.offsets = schedule(in.arrival, in.seconds);
    in.pool = make_pool(in.offsets.size(), seed, pki);
    workload::ArbitrumLikeGenerator gen(seed ^ 0x9B0BEULL);
    core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
    in.probe = factory.make(kProbeClientId, 0);
  }
  const std::uint64_t rss_base_kb = proc_status_kb("VmRSS:");

  std::vector<PhaseResult> rs(static_cast<std::size_t>(phases));
  std::vector<double> mem_peaks_mb;
  for (int p = 0; p < phases; ++p) {
    // Return the previous phase's freed heap to the OS, then "5" resets
    // VmHWM to the current RSS, so each phase reports its own peak over the
    // common post-generation baseline.
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    const int rc = measure_phase(opt, p, cfg, pki, verify_pki,
                                 inputs[static_cast<std::size_t>(p)],
                                 rs[static_cast<std::size_t>(p)]);
    if (rc != 0) return rc;
    mem_peaks_mb.push_back(
        static_cast<double>(proc_status_kb("VmHWM:") - rss_base_kb) / 1024.0);
  }

  // ---- pooled samples and summed counts over the phases
  const auto pooled = [&](std::vector<double> PhaseResult::*field) {
    std::vector<double> v;
    for (const auto& r : rs) v.insert(v.end(), (r.*field).begin(), (r.*field).end());
    return v;
  };
  const auto total = [&](auto field) {
    double s = 0;
    for (const auto& r : rs) s += static_cast<double>(r.*field);
    return s;
  };
  const auto stat_total = [&](std::uint64_t load::PhaseStats::*field) {
    std::uint64_t s = 0;
    for (const auto& r : rs) s += r.st.*field;
    return s;
  };
  util::LatencyRecorder ack_us;
  std::vector<double> setups;
  for (const auto& r : rs) {
    ack_us.merge(r.st.latency_us);
    setups.push_back(r.setup_s);
  }
  const std::uint64_t offered = stat_total(&load::PhaseStats::offered);
  const std::uint64_t acked = stat_total(&load::PhaseStats::acked);
  const std::uint64_t accepted = stat_total(&load::PhaseStats::accepted);
  const double committed = total(&PhaseResult::committed);
  const std::uint64_t failed = stat_total(&load::PhaseStats::shed) + (acked - accepted) +
                               stat_total(&load::PhaseStats::pending_end) +
                               stat_total(&load::PhaseStats::in_flight_end) +
                               (accepted - static_cast<std::uint64_t>(committed));

  // Each phase's percentile, averaged over the phases: a phase's slow or
  // fast regime moves its own tail, and averaging damps that more than a
  // pooled percentile does (NOTES.md, Steadiness).
  const auto phase_mean = [&](double p) {
    double s = 0;
    for (const auto& r : rs) s += percentile(r.commit_ms, p);
    return s / static_cast<double>(rs.size());
  };
  const double commit_p50 = phase_mean(0.50);
  const double commit_p99 = phase_mean(0.99);
  if (std::isinf(commit_p99)) {
    std::fprintf(stderr, "commit_bench: over 1%% of elements uncommitted by the drain end\n");
    return 3;
  }
  // The workload's client read: full snapshots where it issues them, else
  // the light client's proofs_for_epoch() read.
  const std::vector<double> reads_us = pooled(w.snapshot_per_s > 0
                                                  ? &PhaseResult::snapshot_rpc_us
                                                  : &PhaseResult::proofs_rpc_us);
  const double server_cpu = total(&PhaseResult::server_cpu_ns);
  const double cpu_ms_per_kelem = server_cpu / 1e6 / (committed / 1e3);

  if (!opt.trace) {
    print_result(offered, failed,
                 {{"commit_p50_ms", commit_p50, "ms"},
                  {"commit_p99_ms", commit_p99, "ms"},
                  {"cpu_ms_per_kelem", cpu_ms_per_kelem, "ms"},
                  {"setup_s", median(setups), "s"},
                  {"mem_peak_mb", median(mem_peaks_mb), "MB"}});
    return 0;
  }

  // ---- per-layer metrics (traced run)
  const double ack_p50 = static_cast<double>(ack_us.percentile(0.50)) / 1e3;
  const double ack_p99 = static_cast<double>(ack_us.percentile(0.99)) / 1e3;
  const double a2e = median(pooled(&PhaseResult::ack_to_epoch));
  const double e2c = median(pooled(&PhaseResult::epoch_to_commit));
  const double stage_sum = ack_p50 + a2e + e2c;
  std::fprintf(stderr,
               "stage-sum %s: ack %.3f + ack->epoch %.3f + epoch->commit %.3f = %.3f ms"
               " vs commit_p50 %.3f ms (%+.1f%%, %s)\n",
               w.name, ack_p50, a2e, e2c, stage_sum, commit_p50,
               100.0 * (stage_sum / commit_p50 - 1.0),
               std::fabs(stage_sum / commit_p50 - 1.0) <= 0.10 ? "within 10%" : "OUTSIDE 10%");
  const double load_ns = total(&PhaseResult::load_ns);
  const double all_s = total(&PhaseResult::all_ns) / 1e9;
  const double node_load_ns = kN * load_ns;
  const auto busy = [&](FrameClass c) {
    double s = 0;
    for (const auto& r : rs) s += r.busy_ns[static_cast<std::size_t>(c)];
    return s;
  };
  double queue_peak = 0, pump_util_max = 0, fleet_queue_peak = 0;
  for (const auto& r : rs) {
    queue_peak = std::max(queue_peak, r.queue_peak);
    pump_util_max = std::max(pump_util_max, r.pump_util_max);
    fleet_queue_peak = std::max(fleet_queue_peak, static_cast<double>(r.st.queue_peak));
  }
  const double fetches = total(&PhaseResult::fetches);
  const double pump_load_ns = total(&PhaseResult::pump_load_ns);
  const Replay rp = replay(inputs.front().pool, pki);

  const std::vector<Metric> ms = {
      {"stage.ack_to_epoch_p50_ms", a2e, "ms"},
      {"stage.epoch_to_commit_p50_ms", e2c, "ms"},
      {"stage.sum_over_commit", stage_sum / commit_p50, "ratio"},
      {"trace.commit_p50_ms", commit_p50, "ms"},
      {"trace.cpu_ms_per_kelem", cpu_ms_per_kelem, "ms"},
      {"load.ack_p50_ms", ack_p50, "ms"},
      {"load.ack_p99_ms", ack_p99, "ms"},
      {"load.gen_lag_p99_ms", percentile(pooled(&PhaseResult::lag_ms), 0.99), "ms"},
      {"load.queue_peak", fleet_queue_peak, "count"},
      {"load.fail_frac", static_cast<double>(failed) / static_cast<double>(offered), "frac"},
      {"api.epoch_rpc_p50_ms", median(pooled(&PhaseResult::epoch_rpc_us)) / 1e3, "ms"},
      {"api.proofs_rpc_p50_ms", median(pooled(&PhaseResult::proofs_rpc_us)) / 1e3, "ms"},
      {"api.read_p50_ms", percentile(reads_us, 0.50) / 1e3, "ms"},
      {"api.read_p99_ms", percentile(reads_us, 0.99) / 1e3, "ms"},
      {"api.commit_polls_per_epoch",
       total(&PhaseResult::proofs_polls) / total(&PhaseResult::lc_epochs), "count"},
      {"net.frames_per_elem", total(&PhaseResult::frames) / committed, "count"},
      {"net.bytes_per_elem", total(&PhaseResult::bytes) / committed, "B"},
      {"net.send_queue_peak", queue_peak, "count"},
      {"net.send_drops", total(&PhaseResult::drops), "count"},
      {"net.heights_per_s", total(&PhaseResult::heights) / all_s, "1/s"},
      {"net.on_add_us", busy(FrameClass::kAdd) / 1e3 / std::max(1.0, total(&PhaseResult::add_frames)),
       "us"},
      {"net.add_busy_frac", busy(FrameClass::kAdd) / node_load_ns, "frac"},
      {"net.consensus_busy_frac", busy(FrameClass::kConsensus) / node_load_ns, "frac"},
      {"net.ledger_busy_frac", busy(FrameClass::kLedger) / node_load_ns, "frac"},
      {"net.batchx_busy_frac", busy(FrameClass::kBatchX) / node_load_ns, "frac"},
      {"net.reads_busy_frac", busy(FrameClass::kReads) / node_load_ns, "frac"},
      {"net.timer_busy_frac", (pump_load_ns - total(&PhaseResult::handler_ns)) / node_load_ns,
       "frac"},
      {"net.pump_util_max", pump_util_max, "frac"},
      {"net.pump_idle_frac", 1.0 - pump_load_ns / node_load_ns, "frac"},
      {"net.io_cpu_frac", (server_cpu - total(&PhaseResult::pumps_ns)) / server_cpu, "frac"},
      {"core.epochs_per_s", total(&PhaseResult::epochs_in_load) / (load_ns / 1e9), "1/s"},
      {"core.elems_per_epoch", committed / total(&PhaseResult::elem_epochs), "count"},
      {"core.hashchain_fetches_per_batch", fetches / (kN * total(&PhaseResult::total_epochs)),
       "count"},
      {"core.hashchain_fetch_fail_frac",
       fetches > 0 ? total(&PhaseResult::fetch_failed) / fetches : 0, "frac"},
      {"storage.wal_bytes_per_elem", total(&PhaseResult::wal_bytes) / committed, "B"},
      {"storage.fsyncs_per_s", total(&PhaseResult::fsyncs) / (kN * all_s), "1/s"},
      {"storage.snapshots_per_s", total(&PhaseResult::snaps) / (kN * all_s), "1/s"},
      {"crypto.verify_us", rp.verify_us, "us"},
      {"crypto.verify_batch_us_per_sig", rp.verify_batch_us_per_sig, "us"},
      {"codec.lz77_ns_per_byte", rp.lz77_ns_per_byte, "ns/B"},
      {"codec.lz77_ratio", rp.lz77_ratio, "ratio"},
      {"core.epoch_hash_us", rp.epoch_hash_us, "us"},
      {"net.wire_add_roundtrip_us", rp.wire_add_roundtrip_us, "us"},
  };

  std::filesystem::create_directories(opt.trace_dir);
  std::ofstream tf(opt.trace_dir + "/trace-" + w.name + ".csv");
  tf << "phase,kind,a,b,c,d,e,f\n";
  for (const auto& r : rs) tf << r.trace_csv;
  print_result(offered, failed, ms);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: commit_bench --workload hashchain|vanilla|compresschain-reads\n"
               "         --seed N --seconds S --trace 0|1 [--data-root DIR]\n"
               "         [--trace-dir DIR]\n"
               "       commit_bench --self-check [--data-root DIR] [--trace-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace commitbench

int main(int argc, char** argv) {
  using namespace commitbench;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has = i + 1 < argc;
      if (a == "--self-check") {
        opt.self_check = true;
      } else if (a == "--workload" && has) {
        const std::string name = argv[++i];
        for (const auto& w : kWorkloads) {
          if (name == w.name) opt.workload = &w;
        }
        if (opt.workload == nullptr) return usage();
      } else if (a == "--seed" && has) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has) {
        opt.trace = std::string(argv[++i]) != "0";
      } else if (a == "--data-root" && has) {
        opt.data_root = argv[++i];
      } else if (a == "--trace-dir" && has) {
        opt.trace_dir = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (opt.self_check) {
    // A few seconds of the Hashchain workload, traced, one phase: exercises
    // the gate (with its deliberate-corruption probes) and every accounting
    // identity, so a broken harness fails fast.
    opt.workload = &kWorkloads[0];
    opt.seconds = 3;
    opt.trace = true;
  }
  if (opt.workload == nullptr || opt.seconds <= 0) return usage();
  try {
    const int rc = run(opt);
    if (opt.self_check && rc == 0) std::fprintf(stderr, "self-check OK\n");
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "commit_bench: fatal: %s\n", e.what());
    return 2;
  }
}
