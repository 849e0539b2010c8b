// setchain_node — one live Setchain server process.
//
// Hosts a full-fidelity Setchain node (vanilla / compresschain / hashchain)
// behind a TCP transport: the consensus ledger, the Hashchain batch
// exchange, and the client RPC service all speak the length-prefixed wire
// protocol of docs/WIRE_FORMAT.md. Spawn n of these (one per --id) with the
// same --seed/--n/--f/--algo and the full --peer list, then point clients
// (examples/remote_quorum_client) at them. See README "Run a live cluster".

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/byzantine_transport.hpp"
#include "net/node_host.hpp"
#include "net/tcp.hpp"
#include "storage/storage.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --id I --n N --listen HOST:PORT --peer HOST:PORT [xN, id order]\n"
      "          [--f F] [--algo vanilla|compresschain|hashchain] [--seed S]\n"
      "          [--timeout-propose-ms T]\n"
      "          [--collector K] [--collector-timeout-ms T] [--block-interval-ms B]\n"
      "          [--clients C] [--quiet]\n"
      "          [--data-dir DIR] [--fsync always|interval|off]\n"
      "          [--snapshot-epochs E] [--byz-consensus]\n"
      "\n"
      "Every daemon (and client) of one cluster must share --seed, --n, --f\n"
      "and --algo: the PKI keys and the cluster id derive from them. Blocks\n"
      "are ordered by wire-level consensus: the cluster keeps committing\n"
      "with any f nodes crashed.\n"
      "--data-dir makes the node durable: committed blocks are WAL-logged\n"
      "there, snapshots compact the log every E epochs (default 8), and a\n"
      "restart recovers the node's state from disk before it rejoins.\n"
      "--byz-consensus (TEST ONLY) wraps this node's TCP transport in the\n"
      "Byzantine adversary: its honest ledger's outbound frames are\n"
      "rewritten into equivocating proposals, double votes, forged votes\n"
      "and junk sync — honest peers must mask it and stay live.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setchain;

  net::NodeHostConfig cfg;
  cfg.snapshot_epochs = 8;  // effective only with --data-dir
  storage::StorageConfig store_cfg;
  std::string listen;
  std::vector<std::string> peers;
  bool quiet = false;
  bool have_f = false;
  bool byz_consensus = false;

  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage(argv[0]);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--id") {
      cfg.id = static_cast<std::uint32_t>(std::atoi(need_value(i)));
    } else if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::atoi(need_value(i)));
    } else if (arg == "--f") {
      cfg.f = static_cast<std::uint32_t>(std::atoi(need_value(i)));
      have_f = true;
    } else if (arg == "--algo") {
      const auto a = runner::parse_algorithm(need_value(i));
      if (!a) {
        usage(argv[0]);
        return 2;
      }
      cfg.algorithm = *a;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--timeout-propose-ms") {
      cfg.timeout_propose = sim::from_millis(std::atof(need_value(i)));
    } else if (arg == "--listen") {
      listen = need_value(i);
    } else if (arg == "--peer") {
      peers.emplace_back(need_value(i));
    } else if (arg == "--collector") {
      cfg.collector_limit = static_cast<std::uint32_t>(std::atoi(need_value(i)));
    } else if (arg == "--collector-timeout-ms") {
      cfg.collector_timeout = sim::from_millis(std::atof(need_value(i)));
    } else if (arg == "--block-interval-ms") {
      cfg.block_interval = sim::from_millis(std::atof(need_value(i)));
    } else if (arg == "--clients") {
      cfg.client_slots = static_cast<std::uint32_t>(std::atoi(need_value(i)));
    } else if (arg == "--data-dir") {
      store_cfg.dir = need_value(i);
    } else if (arg == "--fsync") {
      const auto m = storage::parse_fsync_mode(need_value(i));
      if (!m) {
        usage(argv[0]);
        return 2;
      }
      store_cfg.fsync = *m;
    } else if (arg == "--snapshot-epochs") {
      cfg.snapshot_epochs = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--byz-consensus") {
      byz_consensus = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!have_f) cfg.f = (cfg.n - 1) / 3;
  if (cfg.n == 0 || cfg.id >= cfg.n || 3 * cfg.f + 1 > cfg.n) {
    std::fprintf(stderr, "setchain_node: need 0 <= id < n and 3f+1 <= n\n");
    return 2;
  }
  if (peers.size() != cfg.n) {
    std::fprintf(stderr, "setchain_node: need exactly n --peer entries (got %zu)\n",
                 peers.size());
    return 2;
  }
  if (listen.empty()) listen = peers[cfg.id];

  net::TcpConfig tcp;
  tcp.self = cfg.id;
  tcp.n = cfg.n;
  tcp.peers = peers;
  tcp.cluster = net::NodeHost::cluster_id_of(cfg);
  if (!net::parse_host_port(listen, tcp.listen_host, tcp.listen_port)) {
    std::fprintf(stderr, "setchain_node: bad --listen %s\n", listen.c_str());
    return 2;
  }

  try {
    std::unique_ptr<storage::Storage> store;
    if (!store_cfg.dir.empty()) {
      std::string err;
      store = storage::Storage::open(store_cfg, &err);
      if (store == nullptr) {
        std::fprintf(stderr, "setchain_node: storage: %s\n", err.c_str());
        return 1;
      }
    }

    sim::Simulation sim;
    net::TcpTransport transport(tcp);
    std::unique_ptr<net::ByzantineTransport> byz;
    if (byz_consensus) byz = std::make_unique<net::ByzantineTransport>(transport, cfg);
    net::NodeHost host(cfg, sim, byz ? static_cast<net::ITransport&>(*byz) : transport,
                       store.get());

    if (store != nullptr) {
      std::string err;
      if (!host.recover(&err)) {
        std::fprintf(stderr, "setchain_node: recovery: %s\n", err.c_str());
        return 1;
      }
      if (!quiet) {
        const auto& r = store->recovery();
        std::fprintf(
            stderr,
            "setchain_node[%u] recovered: snapshot=%s height=%llu "
            "wal(blocks=%llu batches=%llu skipped=%llu truncated=%llu)%s%s\n",
            cfg.id, r.snapshot_loaded ? "yes" : "no",
            static_cast<unsigned long long>(r.snapshot_height),
            static_cast<unsigned long long>(r.wal_blocks_replayed),
            static_cast<unsigned long long>(r.wal_batches_replayed),
            static_cast<unsigned long long>(r.wal_records_skipped),
            static_cast<unsigned long long>(r.wal_truncated_bytes),
            r.diagnostic.empty() ? "" : " note: ",
            r.diagnostic.empty() ? "" : r.diagnostic.c_str());
      }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    host.start();
    transport.start();
    if (!quiet) {
      std::fprintf(
          stderr,
          "setchain_node[%u/%u] %s listening on %s:%u (cluster %016llx)\n",
          cfg.id, cfg.n, runner::algorithm_name(cfg.algorithm), tcp.listen_host.c_str(),
          transport.listen_port(), static_cast<unsigned long long>(tcp.cluster));
    }
    host.run_realtime(g_stop);
    transport.stop();
    if (store != nullptr) store->sync();  // shutdown barrier: tail hits disk

    if (!quiet) {
      const auto c = transport.counters();
      std::fprintf(
          stderr,
          "setchain_node[%u] stopped: epoch=%llu the_set=%llu blocks=%llu "
          "rpcs=%llu frames(tx=%llu rx=%llu) bytes(tx=%llu rx=%llu) "
          "drops(peer=%llu client=%llu) decode_errors=%llu reconnects=%llu "
          "send_queue_peak=%llu\n",
          cfg.id, static_cast<unsigned long long>(host.server().epoch()),
          static_cast<unsigned long long>(host.server().the_set_size()),
          static_cast<unsigned long long>(host.ledger().height()),
          static_cast<unsigned long long>(host.rpcs_served()),
          static_cast<unsigned long long>(c.frames_sent),
          static_cast<unsigned long long>(c.frames_received),
          static_cast<unsigned long long>(c.bytes_sent),
          static_cast<unsigned long long>(c.bytes_received),
          static_cast<unsigned long long>(c.send_drops_peer),
          static_cast<unsigned long long>(c.send_drops_client),
          static_cast<unsigned long long>(c.decode_errors),
          static_cast<unsigned long long>(c.reconnects),
          static_cast<unsigned long long>(c.send_queue_peak));
      const net::ConsensusLedger& cons = host.ledger();
      std::fprintf(
          stderr,
          "setchain_node[%u] consensus: equivocations=%llu masked=%u "
          "vote_sig_rejects=%llu cert_rejects=%llu votes_buffered=%llu "
          "votes_dropped_ahead=%llu proposals_buffered=%llu "
          "proposals_dropped_ahead=%llu\n",
          cfg.id, static_cast<unsigned long long>(cons.equivocations_detected()),
          cons.masked_count(), static_cast<unsigned long long>(cons.vote_sig_rejects()),
          static_cast<unsigned long long>(cons.cert_rejects()),
          static_cast<unsigned long long>(cons.votes_buffered()),
          static_cast<unsigned long long>(cons.votes_dropped_ahead()),
          static_cast<unsigned long long>(cons.proposals_buffered()),
          static_cast<unsigned long long>(cons.proposals_dropped_ahead()));
      if (store != nullptr) {
        const auto& w = store->wal_counters();
        std::fprintf(
            stderr,
            "setchain_node[%u] storage: wal(records=%llu bytes=%llu "
            "fsyncs=%llu segments=%zu) snapshots(written=%llu last_height=%llu)\n",
            cfg.id, static_cast<unsigned long long>(w.records_appended),
            static_cast<unsigned long long>(w.bytes_appended),
            static_cast<unsigned long long>(w.fsyncs), store->wal_segment_count(),
            static_cast<unsigned long long>(store->snapshots_written()),
            static_cast<unsigned long long>(store->last_snapshot_height()));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "setchain_node: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
