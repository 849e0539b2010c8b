// Token ledger: the Appendix-G extension in action — Setchain as a fully
// functional blockchain. Transfers are validated optimistically in parallel
// when added (signatures/syntax only); once an epoch consolidates, every
// server executes its transactions sequentially in canonical order, voiding
// the ones that turn out invalid (double spends). All servers reach
// identical per-epoch state roots. Wallets submit through the setchain::api
// facade (one QuorumClient per wallet), and settlement finality is checked
// the way the paper's client does: f+1 epoch-proofs gathered across servers.
//
//   $ ./token_ledger
#include <cstdio>

#include "api/quorum_client.hpp"
#include "core/hashchain.hpp"
#include "core/invariants.hpp"
#include "exec/executor.hpp"
#include "ledger/ledger_node.hpp"

namespace {

using namespace setchain;

constexpr std::uint32_t kServers = 4;
constexpr exec::AccountId kAlice = 1, kBob = 2, kCarol = 3;

struct Chain {
  core::SetchainParams params;
  crypto::Pki pki{31337};
  ledger::InstantLedger ledger{kServers};
  core::InProcessBatchExchange exchange;  // synchronous, in-process
  std::vector<std::unique_ptr<core::HashchainServer>> servers;
  std::vector<std::unique_ptr<exec::EpochExecutor>> executors;

  Chain() {
    params.n = kServers;
    params.f = 1;
    params.fidelity = core::Fidelity::kFull;
    params.collector_limit = 16;
    params.collector_timeout = 0;
    for (crypto::ProcessId s = 0; s < kServers; ++s) pki.register_process(s);
    pki.register_process(100);  // alice's wallet
    pki.register_process(101);  // bob's wallet

    for (std::uint32_t i = 0; i < kServers; ++i) {
      auto ex = std::make_unique<exec::EpochExecutor>();
      ex->genesis(kAlice, 1000);
      ex->genesis(kBob, 200);
      ex->genesis(kCarol, 0);
      ex->set_owner(kAlice, 100);
      ex->set_owner(kBob, 101);

      core::ServerContext ctx;
      ctx.ledger = &ledger;
      ctx.pki = &pki;
      ctx.batch_exchange = &exchange;
      ctx.params = &params;
      ctx.on_epoch = [p = ex.get()](const core::EpochRecord& rec,
                                    const std::vector<core::Element>& els) {
        p->on_epoch(rec, els);
      };
      auto srv = std::make_unique<core::HashchainServer>(ctx, i);
      ledger.on_new_block(i, [p = srv.get()](const ledger::Block& b) {
        p->on_new_block(b);
      });
      exchange.attach(*srv);
      servers.push_back(std::move(srv));
      executors.push_back(std::move(ex));
    }
  }

  /// A wallet fronts the cluster through the quorum facade; `primary` is the
  /// server it submits through (failover past refusals is automatic).
  api::QuorumClient wallet_client(std::size_t primary) {
    return api::make_quorum_client(servers, pki, params.f, params.fidelity,
                                   api::WritePolicy::kPrimary, primary);
  }

  bool pump() {
    for (auto& s : servers) s->collector().flush();
    return ledger.seal_block();
  }
  void settle() {
    for (int i = 0; i < 60; ++i) {
      if (!pump() && !pump()) return;
    }
  }
};

}  // namespace

int main() {
  Chain chain;
  // Each wallet keeps its own nonce stream and submits through one server
  // (its quorum client's primary): Setchain orders *across* epochs only, so
  // a wallet scattering nonces across servers could see later nonces
  // consolidate first (and voided).
  api::QuorumClient alice_wallet = chain.wallet_client(0);
  api::QuorumClient bob_wallet = chain.wallet_client(1);
  std::uint64_t alice_seq = 1, bob_seq = 1;
  core::ElementId first_transfer = 0;
  auto alice_sends = [&](exec::TokenTx tx) {
    const auto e = exec::make_token_element(chain.pki, 100, alice_seq++, tx);
    if (first_transfer == 0) first_transfer = e.id;
    alice_wallet.add(e);
  };
  auto bob_sends = [&](exec::TokenTx tx) {
    bob_wallet.add(exec::make_token_element(chain.pki, 101, bob_seq++, tx));
  };

  std::printf("genesis: alice=1000, bob=200, carol=0 (supply 1200)\n\n");

  alice_sends({kAlice, kBob, 300, 0});
  bob_sends({kBob, kCarol, 150, 0});
  alice_sends({kAlice, kCarol, 100, 1});
  // Theft attempt: bob's wallet signs a transfer out of ALICE's account.
  // It parses fine and the element signature verifies, but execution voids
  // it: account 1 is owned by client 100.
  bob_sends({kAlice, kBob, 500, 2});
  // Double spend attempt: alice has 600 left and signs two 400-transfers.
  // Both pass optimistic validation (each alone is affordable) — sequential
  // epoch execution must void the second, identically on every server.
  alice_sends({kAlice, kBob, 400, 2});
  alice_sends({kAlice, kCarol, 400, 3});

  chain.settle();

  // Settlement finality through the facade: alice's first transfer must be
  // committed — consolidated into an f+1-agreed epoch carrying f+1 valid
  // proofs from distinct servers, gathered across the cluster.
  const auto finality =
      alice_wallet.wait_committed(first_transfer, [&] { return chain.pump(); });
  std::printf("alice's first transfer: epoch %llu, %zu proofs from %zu servers,"
              " committed %s\n\n",
              static_cast<unsigned long long>(finality.epoch), finality.valid_proofs,
              finality.proof_sources, finality.committed ? "yes" : "NO");

  const auto& ex0 = *chain.executors[0];
  std::printf("executed %llu transfers, voided %llu, across %llu epochs\n",
              static_cast<unsigned long long>(ex0.executed()),
              static_cast<unsigned long long>(ex0.voided()),
              static_cast<unsigned long long>(ex0.epochs_executed()));
  for (const auto& rec : ex0.log()) {
    std::printf("  epoch %llu: %llu -> %llu amount %llu : %s\n",
                static_cast<unsigned long long>(rec.epoch),
                static_cast<unsigned long long>(rec.tx.from),
                static_cast<unsigned long long>(rec.tx.to),
                static_cast<unsigned long long>(rec.tx.amount),
                exec::void_reason_name(rec.verdict));
  }

  std::printf("\nfinal balances (server 0): alice=%llu bob=%llu carol=%llu"
              " (supply %llu)\n",
              static_cast<unsigned long long>(ex0.state().balance(kAlice)),
              static_cast<unsigned long long>(ex0.state().balance(kBob)),
              static_cast<unsigned long long>(ex0.state().balance(kCarol)),
              static_cast<unsigned long long>(ex0.state().total_supply()));

  bool roots_agree = true;
  for (std::uint32_t i = 1; i < kServers; ++i) {
    roots_agree &= (chain.executors[i]->state_root() == ex0.state_root());
  }
  std::printf("state roots identical on all %u servers: %s\n", kServers,
              roots_agree ? "yes" : "NO");

  const bool supply_ok = ex0.state().total_supply() == 1200;
  // Exactly two voids expected: bob's theft attempt and the double spend.
  std::size_t thefts = 0, double_spends = 0;
  for (const auto& rec : ex0.log()) {
    thefts += (rec.verdict == exec::VoidReason::kUnauthorized);
    double_spends += (rec.verdict == exec::VoidReason::kInsufficientFunds);
  }
  std::printf("theft voided: %zu, double spend voided: %zu\n", thefts, double_spends);
  return (roots_agree && supply_ok && thefts == 1 && double_spends == 1 &&
          finality.committed)
             ? 0
             : 1;
}
