#include <chrono>
#include <cstdio>

#include "runtime/socket_smr.hpp"
#include "smr/service.hpp"

/// The same protocol, real sockets, real clock. Part 1: nine replicas in
/// this process, each with its own TCP endpoint on loopback, f = t = 2,
/// two of them crashed before start — wall-clock time until every correct
/// replica applied one Byzantine-fault-tolerant decision. Part 2: the
/// full client API over the same socket runtime — two smr::ClientSessions
/// drive a replicated KV service (typed ops, f + 1 signed-reply quorum
/// per request), and a replica crash mid-run is absorbed by session
/// failover plus wall-clock view change.
///
/// Run: ./build/examples/realtime_quickstart

using namespace fastbft;
using namespace std::chrono;
using namespace std::chrono_literals;

namespace {

int run_socket_service() {
  auto config = smr::ServiceConfig{}
                    .with_cluster(/*n=*/6, /*f=*/1, /*t=*/1)
                    .with_sessions(2)
                    .with_batch(8)
                    .with_pipeline_depth(8)
                    .with_rotating_leaders()
                    .with_window(8)
                    .with_first_gateway(1);
  auto service = smr::make_socket_service(config);

  auto begin = steady_clock::now();
  service->start();

  // Closed-loop warm-up: both sessions stream puts, windowed at 8.
  constexpr std::uint64_t kPerSession = 60;
  std::vector<smr::Future<smr::Reply>> futures;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t i = 1; i <= kPerSession; ++i) {
      futures.push_back(service->session(s).put(
          "account-" + std::to_string(i % 16),
          "balance-" + std::to_string(s * 1000 + i)));
    }
  }
  auto all_ready = [&] {
    for (const auto& f : futures) {
      if (!f.ready()) return false;
    }
    return true;
  };
  if (!service->run_until(all_ready, 30'000ms)) {
    std::printf("socket service made no progress — something is wrong\n");
    return 1;
  }

  // Crash session 0's gateway mid-run: its in-flight requests fail over
  // to the next replica; the crashed process's slots are rescued by
  // wall-clock view change underneath.
  service->crash(1);
  smr::Future<smr::Reply> through_crash =
      service->session(0).put("after-crash", "survived");
  if (!service->await(through_crash, 30'000ms)) {
    std::printf("request through the crashed gateway never completed\n");
    return 1;
  }
  smr::Future<smr::Reply> read = service->session(1).get("after-crash");
  bool read_done = service->await(read, 30'000ms);
  bool converged = service->await_applied(2 * kPerSession + 2, 30'000ms);
  auto elapsed = duration_cast<microseconds>(steady_clock::now() - begin);
  service->stop();

  if (!read_done || !read.value().result.found) {
    std::printf("the other session cannot see the write — bug\n");
    return 1;
  }
  std::printf("\nreplicated KV service over loopback TCP (n = 6, depth = 8, "
              "2 sessions, gateway p1 crashed mid-run):\n");
  for (std::uint32_t s = 0; s < 2; ++s) {
    std::printf("  session %u: %llu completed, %llu failovers\n", s,
                static_cast<unsigned long long>(
                    service->session(s).completed()),
                static_cast<unsigned long long>(
                    service->session(s).failovers()));
  }
  std::printf("cross-session read: \"%s\" (quorum-verified), stores agree: "
              "%s | wall-clock: %lld us\n",
              read.value().result.value.c_str(),
              service->stores_agree() && converged ? "yes" : "NO (bug!)",
              static_cast<long long>(elapsed.count()));
  std::printf("(every completion carries f + 1 matching signed replies; "
              "the crashed gateway's requests were resubmitted through "
              "the next replica by the session's per-request timers)\n");
  return 0;
}

}  // namespace

int main() {
  runtime::SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(/*n=*/9, /*f=*/2, /*t=*/2);
  config.smr.target_commands = 1;
  runtime::SocketSmrCluster cluster(config);
  cluster.crash(4);
  cluster.crash(8);
  cluster.submit(smr::Command::put("greeting", "hello", /*client=*/1,
                                   /*sequence=*/1));

  auto begin = steady_clock::now();
  cluster.start();
  bool decided = cluster.wait_applied(1, seconds(10));
  auto elapsed = duration_cast<microseconds>(steady_clock::now() - begin);
  cluster.stop();

  if (!decided) {
    std::printf("no decision within 10s — something is wrong\n");
    return 1;
  }

  std::printf("9 replicas (2 crashed), f = t = 2, loopback TCP:\n");
  for (ProcessId id = 0; id < config.cfg.n; ++id) {
    if (cluster.is_faulty(id)) continue;
    const auto greeting = cluster.server(id).node().store().get("greeting");
    std::printf("  p%u applied slot 1: greeting = \"%s\"\n", id,
                greeting.value_or("?").c_str());
  }
  std::printf("agreement: %s\n",
              cluster.correct_stores_agree() ? "yes" : "NO (bug!)");
  std::printf("wall-clock time to full decision: %lld us (%llu messages "
              "delivered, connection setup included)\n",
              static_cast<long long>(elapsed.count()),
              static_cast<unsigned long long>(cluster.delivered_messages()));
  std::printf("\n(the two-message-delay structure is the same as in the\n"
              "simulator; here a \"delay\" is a loopback TCP hop of tens of\n"
              "microseconds instead of a scripted Delta)\n");

  return run_socket_service();
}
