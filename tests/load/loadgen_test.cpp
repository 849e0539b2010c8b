// Load-harness tier: the arrival processes must produce the schedules they
// advertise, the pooled source must stripe exactly, and an open-loop fleet
// soak against a live 4-node TCP cluster must come back with clean framing,
// a bounded tail, and accounting that balances to the element
// (offered == sent + shed + pending_end, sent == acked + in_flight_end).
#include "load/fleet.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "core/element.hpp"
#include "load/arrival.hpp"
#include "load/local_cluster.hpp"
#include "workload/arbitrum_like.hpp"

namespace setchain::load {
namespace {

// ------------------------------------------------------------ arrival tests

TEST(ArrivalProcess, UniformIsExact) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kUniform;
  cfg.rate = 100.0;
  ArrivalProcess p(cfg);
  ASSERT_TRUE(p.open_loop());
  for (int i = 1; i <= 1000; ++i) {
    EXPECT_NEAR(p.next(), i * 0.01, 1e-9);
  }
}

TEST(ArrivalProcess, ZeroRateMeansClosedLoop) {
  ArrivalConfig cfg;
  cfg.rate = 0;
  ArrivalProcess p(cfg);
  EXPECT_FALSE(p.open_loop());
}

TEST(ArrivalProcess, PoissonHitsTargetRateAndIsSeeded) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate = 500.0;
  cfg.seed = 7;

  ArrivalProcess p(cfg);
  const int n = 50'000;
  double t = 0, prev = 0;
  for (int i = 0; i < n; ++i) {
    t = p.next();
    ASSERT_GE(t, prev) << "schedule went backwards";
    prev = t;
  }
  // Realized rate n / t: 50k exponential gaps put the sample mean within a
  // fraction of a percent of 1/rate with overwhelming probability.
  EXPECT_NEAR(n / t, cfg.rate, 0.05 * cfg.rate);

  // Same seed → identical schedule; different seed → different schedule.
  ArrivalProcess again(cfg);
  for (int i = 0; i < 100; ++i) p.next();
  ArrivalProcess replay(cfg);
  cfg.seed = 8;
  ArrivalProcess other(cfg);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const double a = again.next();
    EXPECT_DOUBLE_EQ(a, replay.next());
    if (std::abs(a - other.next()) > 1e-12) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ArrivalProcess, BurstAlternatesRates) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBurst;
  cfg.rate = 100.0;
  cfg.burst_rate = 1000.0;
  cfg.burst_on_s = 1.0;
  cfg.burst_off_s = 4.0;
  cfg.seed = 3;
  ArrivalProcess p(cfg);

  // Bucket arrivals over many periods into on/off windows.
  const double horizon = 100.0;  // 20 periods
  std::uint64_t on = 0, off = 0;
  for (;;) {
    const double t = p.next();
    if (t >= horizon) break;
    const double pos = std::fmod(t, cfg.burst_on_s + cfg.burst_off_s);
    (pos < cfg.burst_on_s ? on : off) += 1;
  }
  // Expect ~20 * 1000 on-arrivals and ~20 * 400 off-arrivals.
  EXPECT_NEAR(static_cast<double>(on), 20'000.0, 0.1 * 20'000.0);
  EXPECT_NEAR(static_cast<double>(off), 8'000.0, 0.1 * 8'000.0);
}

// ------------------------------------------------------------- source tests

TEST(PooledElementSource, StripesExactlyOnce) {
  std::vector<core::Element> pool(10);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i].id = 1000 + i;

  PooledElementSource src(pool, 3);
  // Session 0 owns 0, 3, 6, 9; session 1 owns 1, 4, 7; session 2 owns 2, 5, 8.
  EXPECT_EQ(src.next(0)->id, 1000u);
  EXPECT_EQ(src.next(1)->id, 1001u);
  EXPECT_EQ(src.next(0)->id, 1003u);
  EXPECT_EQ(src.next(2)->id, 1002u);
  EXPECT_EQ(src.next(0)->id, 1006u);
  EXPECT_EQ(src.next(0)->id, 1009u);
  EXPECT_EQ(src.next(0), nullptr);  // session 0 exhausted
  EXPECT_EQ(src.next(1)->id, 1004u);
  EXPECT_EQ(src.next(1)->id, 1007u);
  EXPECT_EQ(src.next(1), nullptr);
  EXPECT_EQ(src.next(2)->id, 1005u);
  EXPECT_EQ(src.next(2)->id, 1008u);
  EXPECT_EQ(src.next(2), nullptr);
  EXPECT_EQ(src.consumed(), pool.size());
}

// -------------------------------------------------------------- fleet soak

net::NodeHostConfig soak_config() {
  net::NodeHostConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.algorithm = runner::Algorithm::kHashchain;
  cfg.seed = 42;
  cfg.collector_limit = 64;
  cfg.collector_timeout = sim::from_millis(50);
  cfg.block_interval = sim::from_millis(50);
  cfg.sync_interval = sim::from_millis(400);
  return cfg;
}

std::vector<core::Element> signed_pool(const net::NodeHostConfig& cfg,
                                       std::size_t budget) {
  crypto::Pki pki(cfg.seed);
  for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
    pki.register_process(p);
  }
  workload::ArbitrumLikeGenerator gen(cfg.seed ^ 0xBE7C4ULL);
  core::ElementFactory factory(gen, pki, core::Fidelity::kFull);
  std::vector<core::Element> pool;
  pool.reserve(budget);
  for (std::size_t s = 0; s < budget; ++s) pool.push_back(factory.make(cfg.n, s));
  return pool;
}

TEST(LoadFleet, OpenLoopSoakBalancesToTheElement) {
  const auto cfg = soak_config();
  LocalCluster cluster(cfg);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  FleetConfig fc;
  fc.targets = cluster.targets();
  fc.cluster = cluster.cluster_id();
  fc.sessions = 32;
  fc.window = 64;

  const auto pool = signed_pool(cfg, 4'000);
  PooledElementSource source(pool, fc.sessions);

  LoadFleet fleet(fc);
  ASSERT_EQ(fleet.connect(), fc.sessions) << "fleet failed to dial the cluster";

  ArrivalConfig arrival;
  arrival.kind = ArrivalKind::kPoisson;
  arrival.rate = 400.0;
  arrival.seed = 11;
  const PhaseStats st = fleet.run_phase(source, arrival, 3.0);
  fleet.close();
  cluster.shutdown();

  // Clean run: every session survived, no framing damage anywhere.
  EXPECT_EQ(st.sessions_alive, fc.sessions);
  EXPECT_EQ(st.decode_errors, 0u);
  EXPECT_EQ(st.io_errors, 0u);
  EXPECT_EQ(cluster.counters_total().decode_errors, 0u);
  EXPECT_EQ(cluster.counters_total().send_drops, 0u);

  // The schedule ran open loop near its target (Poisson, 3 s at 400/s).
  EXPECT_GT(st.offered, 900u);
  EXPECT_LT(st.offered, 1500u);
  EXPECT_EQ(st.shed, 0u) << "cluster fell behind a modest schedule";

  // Offered-vs-completed accounting balances to the element.
  EXPECT_EQ(st.offered, st.sent + st.shed + st.pending_end);
  EXPECT_EQ(st.sent, st.acked + st.in_flight_end)
      << "acks lost with every session alive";
  EXPECT_GT(st.acked, 0u);
  EXPECT_EQ(st.accepted, st.acked) << "cluster refused valid signed adds";

  // Tail bounded: p99 under two seconds on a healthy local cluster, and the
  // recorder saw exactly the acked population.
  EXPECT_EQ(st.latency_us.count(), st.acked);
  EXPECT_LT(st.latency_us.percentile(0.99), 2'000'000u);
  EXPECT_LE(st.queue_peak, fc.max_pending);
}

TEST(LoadFleet, ClosedLoopAndSecondPhaseReuseSessions) {
  const auto cfg = soak_config();
  LocalCluster cluster(cfg);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  FleetConfig fc;
  fc.targets = cluster.targets();
  fc.cluster = cluster.cluster_id();
  fc.sessions = 8;
  fc.window = 16;

  const auto pool = signed_pool(cfg, 60'000);
  PooledElementSource source(pool, fc.sessions);
  LoadFleet fleet(fc);
  ASSERT_EQ(fleet.connect(), fc.sessions);

  // Phase 1: closed loop (rate 0) — offered is defined as sent.
  ArrivalConfig closed;
  closed.rate = 0;
  const PhaseStats p1 = fleet.run_phase(source, closed, 1.0);
  EXPECT_EQ(p1.offered, p1.sent);
  EXPECT_EQ(p1.sent, p1.acked + p1.in_flight_end);
  EXPECT_GT(p1.acked, 0u);
  EXPECT_EQ(p1.decode_errors, 0u);

  // Phase 2 on the SAME sessions: rate curves reuse connections.
  ArrivalConfig open;
  open.kind = ArrivalKind::kUniform;
  open.rate = 200.0;
  const PhaseStats p2 = fleet.run_phase(source, open, 1.0);
  EXPECT_EQ(p2.sessions_alive, fc.sessions);
  EXPECT_EQ(p2.offered, p2.sent + p2.shed + p2.pending_end);
  EXPECT_GT(p2.acked, 0u);

  fleet.close();
  EXPECT_EQ(fleet.sessions_alive(), 0u);
  cluster.shutdown();
}

}  // namespace
}  // namespace setchain::load
