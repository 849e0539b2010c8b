// E-voting rounds: the paper's second motivating application (Follow My
// Vote, Chirotonia). Ballots within a voting round need no mutual order —
// only the round boundaries matter — which is exactly the Setchain epoch
// structure. This example runs ballots through Hashchain via the
// setchain::api facade: every voter submits through their own QuorumClient,
// the tally is computed from a quorum-reconciled get() (f+1 servers must
// agree on every epoch counted), duplicate ballots (double voting via
// broadcast) are counted once, and the audit check commits each ballot with
// f+1 epoch-proofs gathered across servers.
//
//   $ ./voting
#include <cstdio>
#include <map>
#include <string>

#include "api/quorum_client.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "ledger/ledger_node.hpp"

namespace {

using namespace setchain;

struct Election {
  static constexpr std::uint32_t kServers = 4;
  core::SetchainParams params;
  crypto::Pki pki{777};
  ledger::InstantLedger ledger{kServers};
  core::InProcessBatchExchange exchange;  // synchronous, in-process
  std::vector<std::unique_ptr<core::HashchainServer>> servers;
  std::map<core::ElementId, std::string> ballot_choice;  // audit trail

  Election() {
    params.n = kServers;
    params.f = 1;
    params.fidelity = core::Fidelity::kFull;
    params.collector_limit = 64;  // flushed manually at round close
    params.collector_timeout = 0;
    for (crypto::ProcessId s = 0; s < kServers; ++s) pki.register_process(s);

    core::ServerContext ctx;
    ctx.ledger = &ledger;
    ctx.pki = &pki;
    ctx.batch_exchange = &exchange;
    ctx.params = &params;
    for (std::uint32_t i = 0; i < kServers; ++i) {
      auto srv = std::make_unique<core::HashchainServer>(ctx, i);
      ledger.on_new_block(i, [p = srv.get()](const ledger::Block& b) {
        p->on_new_block(b);
      });
      exchange.attach(*srv);
      servers.push_back(std::move(srv));
    }
  }

  /// Each voter talks to the cluster through their own quorum client; the
  /// servers are only ever reached through the ISetchainNode interface.
  api::QuorumClient make_client(api::WritePolicy policy, std::size_t primary) {
    return api::make_quorum_client(servers, pki, params.f, params.fidelity, policy,
                                   primary);
  }

  core::Element ballot(crypto::ProcessId voter, std::uint64_t seq,
                       const std::string& choice) {
    core::Element e;
    e.client = voter;
    e.id = core::make_element_id(voter, seq);
    e.payload = codec::to_bytes("ballot:" + choice);
    codec::Writer w;
    w.u64le(e.id);
    w.bytes(e.payload);
    e.sig = pki.sign(voter, w.buffer());
    codec::Writer ser;
    core::serialize_element(ser, e);
    e.wire_size = static_cast<std::uint32_t>(ser.size());
    ballot_choice[e.id] = choice;
    return e;
  }

  /// Close the round: flush collectors and drain the ledger so every pending
  /// ballot lands in consolidated epochs.
  bool pump() {
    for (auto& s : servers) s->collector().flush();
    return ledger.seal_block();
  }
  void close_round() {
    for (int i = 0; i < 60; ++i) {
      if (!pump() && !pump()) return;
    }
  }

  /// Tally every epoch in [from_epoch, to_epoch] from a quorum-reconciled
  /// view: every counted epoch carries f+1 matching server words.
  std::map<std::string, int> tally(api::QuorumClient& observer,
                                   std::uint64_t from_epoch, std::uint64_t to_epoch) {
    std::map<std::string, int> counts;
    const auto view = observer.get();
    for (const auto& rec : view.history) {
      if (rec.number < from_epoch || rec.number > to_epoch) continue;
      for (const auto id : rec.ids) {
        auto it = ballot_choice.find(id);
        if (it != ballot_choice.end()) ++counts[it->second];
      }
    }
    return counts;
  }
};

}  // namespace

int main() {
  Election election;
  // Register 9 voters, each fronting the cluster with their own client.
  std::vector<api::QuorumClient> voters;
  for (crypto::ProcessId v = 1000; v < 1009; ++v) {
    election.pki.register_process(v);
    voters.push_back(
        election.make_client(api::WritePolicy::kPrimary, (v - 1000) % 4));
  }

  // ---- Round 1: voters 1000..1008 vote; one tries to double-vote.
  std::vector<core::ElementId> round1_ballots;
  std::uint64_t seq = 1;
  const char* round1_votes[] = {"fennel", "fennel", "rhubarb", "fennel", "rhubarb",
                                "fennel", "rhubarb", "rhubarb", "fennel"};
  for (int i = 0; i < 9; ++i) {
    const auto b = election.ballot(1000 + static_cast<crypto::ProcessId>(i), seq,
                                   round1_votes[i]);
    round1_ballots.push_back(b.id);
    voters[static_cast<std::size_t>(i)].add(b);
  }
  // Voter 1000 double-votes by broadcasting the SAME signed ballot to every
  // server (WritePolicy::kAll); Unique-Epoch guarantees it is counted once.
  api::QuorumClient spammer = election.make_client(api::WritePolicy::kAll, 1);
  const auto dup = election.ballot(1000, seq, round1_votes[0]);
  spammer.add(dup);

  election.close_round();
  api::QuorumClient observer = election.make_client(api::WritePolicy::kPrimary, 0);
  const std::uint64_t round1_end = observer.get().epoch;
  auto tally1 = election.tally(observer, 1, round1_end);
  std::printf("round 1 closed at epoch %llu (f+1 quorum agreed)\n",
              static_cast<unsigned long long>(round1_end));
  for (const auto& [choice, n] : tally1) std::printf("  %-8s %d\n", choice.c_str(), n);

  // ---- Round 2: a runoff with fewer voters.
  ++seq;
  const char* round2_votes[] = {"fennel", "rhubarb", "fennel", "fennel", "rhubarb"};
  for (int i = 0; i < 5; ++i) {
    const auto b = election.ballot(1000 + static_cast<crypto::ProcessId>(i), seq,
                                   round2_votes[i]);
    voters[static_cast<std::size_t>(i)].add(b);
  }
  election.close_round();
  const std::uint64_t round2_end = observer.get().epoch;
  auto tally2 = election.tally(observer, round1_end + 1, round2_end);
  std::printf("round 2 closed at epoch %llu\n",
              static_cast<unsigned long long>(round2_end));
  for (const auto& [choice, n] : tally2) std::printf("  %-8s %d\n", choice.c_str(), n);

  // An auditor re-verifies every round-1 ballot: each must commit with f+1
  // valid epoch-proofs from distinct servers, gathered across the cluster.
  api::QuorumClient auditor = election.make_client(api::WritePolicy::kPrimary, 3);
  bool all_committed = true;
  for (const auto id : round1_ballots) {
    const auto v = auditor.wait_committed(id, [&] { return election.pump(); });
    all_committed = all_committed && v.committed;
  }
  std::printf("all %zu round-1 ballots committed with f+1 cross-server proofs: %s\n",
              round1_ballots.size(), all_committed ? "yes" : "NO");

  std::vector<const core::SetchainServer*> servers;
  for (auto& s : election.servers) servers.push_back(s.get());
  const bool consistent = core::check_safety(servers).ok();
  std::printf("cross-server consistency: %s\n", consistent ? "OK" : "VIOLATED");

  const bool counts_ok = tally1["fennel"] == 5 && tally1["rhubarb"] == 4 &&
                         tally2["fennel"] == 3 && tally2["rhubarb"] == 2;
  std::printf("double vote counted once: %s\n", counts_ok ? "yes" : "NO");
  const bool nobody_masked = observer.get().masked_nodes == 0;
  std::printf("no server flagged as equivocating: %s\n", nobody_masked ? "yes" : "NO");
  return (all_committed && consistent && counts_ok && nobody_masked) ? 0 : 1;
}
