// Load generator for the speedmask analysis daemon (src/service).
//
// Starts an in-process daemon on a private socket and drives it through the
// client library, measuring what the service tentpole promises:
//
//   1. cold-vs-warm latency — every unique request once (all cache misses),
//      then the same set repeated (all content-addressed cache hits); the
//      warm p50 must be >= 10x lower than the cold p50.
//   2. concurrency byte-identity — one client runs a request sequence, then
//      --threads=N clients (default 8) run the same sequence concurrently
//      against fresh cache keys; every result must be byte-identical to the
//      single-client baseline.
//   3. backpressure — a 1-worker/capacity-1 daemon is saturated with a slow
//      request; concurrent submissions must be answered "overloaded" while
//      the accepted request still completes.
//   4. graceful shutdown — the shutdown request is acknowledged only after
//      accepted work drained, and the daemon exits cleanly.
//   5. sharded fleet (src/fleet) — byte identity across shard counts: the
//      same request set through a 1-, 2- and 4-shard fleet's router, and
//      direct to a shard bypassing the router, must all produce bytes
//      identical to each other; a graceful rolling restart of every shard
//      under a live request stream must drop or duplicate nothing; and
//      cold-compute throughput must scale near-linearly with shard count
//      (>= 1.7x at 2 shards, >= 3x at 4, each the median ratio over paired
//      repetitions — gated only when the host has enough cores; the
//      identity and restart gates always apply).
//
// Usage: service_load [--smoke] [--threads=N] [--json=PATH]
//
// Latency numbers go to stderr and the JSON dump (--json=BENCH_service.json
// in CI); stdout carries the deterministic pass/fail summary. Exits
// non-zero when any of the four gates fails.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "support/bench_runner.h"
#include "util/stats.h"
#include "util/timer.h"

namespace sm {
namespace {

struct LatencyStats {
  std::size_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
};

LatencyStats Summarize(std::vector<double> ms) {
  LatencyStats s;
  s.count = ms.size();
  if (ms.empty()) return s;
  std::sort(ms.begin(), ms.end());
  s.p50_ms = ms[(ms.size() - 1) / 2];
  s.p99_ms = ms[(ms.size() - 1) * 99 / 100];
  double total = 0;
  for (double v : ms) total += v;
  s.mean_ms = total / static_cast<double>(ms.size());
  return s;
}

Json ToJson(const LatencyStats& s) {
  Json obj = Json::MakeObject();
  obj.Set("count", s.count);
  obj.Set("p50_ms", s.p50_ms);
  obj.Set("p99_ms", s.p99_ms);
  obj.Set("mean_ms", s.mean_ms);
  return obj;
}

std::vector<ServiceRequest> BuildRequestSet(bool smoke, double guard) {
  const std::vector<std::string> circuits =
      smoke ? std::vector<std::string>{"i1", "cmb", "x2", "cu"}
            : std::vector<std::string>{"i1",   "cmb",  "x2",  "cu",
                                       "alu2", "frg1", "C432"};
  std::vector<ServiceRequest> requests;
  for (const std::string& name : circuits) {
    ServiceRequest r;
    r.method = ServiceMethod::kAnalyzeSpcf;
    r.circuit_name = name;
    r.guard = guard;
    requests.push_back(r);
  }
  // A couple of full-flow requests so the warm path also covers the
  // heavyweight method.
  for (const std::string name : {"i1", "cmb"}) {
    ServiceRequest r;
    r.method = ServiceMethod::kSynthesizeMasking;
    r.circuit_name = name;
    r.guard = guard;
    requests.push_back(r);
  }
  return requests;
}

// Runs `requests` in order on one fresh connection; returns "status\n" or
// the result bytes per request, and appends each latency.
std::vector<std::string> RunSequence(const std::string& socket,
                                     const std::vector<ServiceRequest>& requests,
                                     std::vector<double>* latencies_ms) {
  ServiceClient client(socket);
  std::vector<std::string> results;
  results.reserve(requests.size());
  for (const ServiceRequest& r : requests) {
    WallTimer timer;
    const ServiceResponse response = client.Call(r);
    if (latencies_ms != nullptr) latencies_ms->push_back(timer.Millis());
    results.push_back(response.ok() ? response.result_json
                                    : response.status + ": " + response.error);
  }
  return results;
}

bool RunOverloadProbe(bool smoke, Json* report) {
  ServerOptions options;
  options.listen_address =
      "/tmp/speedmask_load_ovl_" + std::to_string(::getpid()) + ".sock";
  options.num_workers = 1;
  options.queue_capacity = 1;
  SpeedmaskServer server(options);
  server.Start();

  // Occupy the single admission slot with a slow Monte-Carlo request.
  ServiceRequest slow;
  slow.method = ServiceMethod::kEstimateYield;
  slow.circuit_name = "cu";
  slow.trials = smoke ? 20000 : 100000;
  std::string slow_status;
  std::thread slow_thread([&] {
    ServiceClient client(options.listen_address);
    slow_status = client.Call(slow).status;
  });

  // Wait until the daemon reports the request in flight.
  ServiceClient probe(options.listen_address);
  for (int i = 0; i < 500; ++i) {
    const ServiceResponse stats = probe.Stats();
    const Json doc = Json::Parse(stats.result_json);
    if (doc.GetUint64("queue_depth", 0) >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Everything submitted now must bounce: the queue is full.
  std::size_t overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest r;
    r.method = ServiceMethod::kAnalyzeSpcf;
    r.circuit_name = "x2";
    r.guard = 0.17 + 0.01 * i;  // unique keys: no cache short-circuit
    if (probe.Call(r).status == "overloaded") ++overloaded;
  }

  // Graceful shutdown must still complete the accepted slow request.
  const ServiceResponse shutdown_ack = probe.Shutdown();
  server.Wait();
  slow_thread.join();

  const bool ok =
      overloaded >= 1 && slow_status == "ok" && shutdown_ack.ok();
  Json obj = Json::MakeObject();
  obj.Set("overloaded_responses", overloaded);
  obj.Set("accepted_request_status", slow_status);
  obj.Set("shutdown_ack", shutdown_ack.status);
  obj.Set("ok", ok);
  *report = std::move(obj);
  return ok;
}

// ---- Phase 5 helpers: sharded fleet --------------------------------------

std::unique_ptr<SpeedmaskFleet> StartFleet(int num_shards, int workers,
                                           const std::string& tag) {
  FleetOptions fo;
  fo.listen_address = "/tmp/speedmask_load_fleet_" +
                      std::to_string(::getpid()) + "_" + tag + ".sock";
  fo.num_shards = num_shards;
  fo.shard_options.num_workers = workers;
  auto fleet = std::make_unique<SpeedmaskFleet>(std::move(fo));
  fleet->Start();
  return fleet;
}

// Cold-compute throughput through the router: `clients` concurrent
// connections each run the request set once with a client-unique guard, so
// every request is a cache miss and the compute spreads over the shards by
// circuit. Client c starts at request c of the set, so the clients do not
// walk the circuits in lockstep and pile onto one shard at a time. Returns
// requests per second.
double MeasureColdThroughput(const std::string& address,
                             const std::vector<ServiceRequest>& base,
                             int clients) {
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<ServiceRequest> mine = base;
      const int first = c % static_cast<int>(mine.size());
      std::rotate(mine.begin(), mine.begin() + first, mine.end());
      for (ServiceRequest& r : mine) r.guard += 1e-4 * (c + 1);
      RunSequence(address, mine, nullptr);
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = timer.Seconds();
  const double total = static_cast<double>(base.size()) * clients;
  return seconds > 0 ? total / seconds : 0;
}

// Paired repetitions of the 1/2/4-shard throughput measurement.
constexpr int kScalingReps = 5;

struct FleetReport {
  bool identity_ok = false;
  bool restart_ok = false;
  std::size_t restart_sent = 0;
  std::size_t restart_answered_ok = 0;
  double tput1 = 0, tput2 = 0, tput4 = 0;  // medians over repetitions
  std::vector<double> scale2_reps, scale4_reps;  // one ratio per repetition
  double scale2 = 0, scale4 = 0;                 // medians of the ratios
  bool scale2_gated = false, scale4_gated = false;
  bool scale2_ok = true, scale4_ok = true;  // true when waived
};

FleetReport RunFleetPhase(bool smoke) {
  FleetReport rep;
  const unsigned cores = std::thread::hardware_concurrency();

  // Cheap identity set: SPCF analyses only (the heavyweight methods are
  // covered by the single-daemon phases; here the hop count is the point).
  std::vector<ServiceRequest> identity;
  for (const ServiceRequest& r : BuildRequestSet(smoke, 0.19)) {
    if (r.method == ServiceMethod::kAnalyzeSpcf) identity.push_back(r);
  }

  // Compute-bound set for throughput scaling: one Monte-Carlo yield
  // estimate per circuit. Placement is fixed per shard count, and these
  // circuits split their compute about evenly over 2 and 4 shards, so the
  // gate measures scaling, not placement.
  std::vector<ServiceRequest> yield_set;
  for (const char* name :
       {"i1", "cmb", "x2", "cu", "alu2", "alu4", "frg1", "C432", "C880"}) {
    ServiceRequest r;
    r.method = ServiceMethod::kEstimateYield;
    r.circuit_name = name;
    r.guard = 0.21;
    r.trials = smoke ? 4000 : 20000;
    yield_set.push_back(r);
  }

  // ---- Identity: 1 vs 2 vs 4 shards, router vs direct-to-shard ----------
  std::vector<std::string> reference;
  {
    bool ok = true;
    for (const int shards : {1, 2, 4}) {
      auto fleet = StartFleet(shards, /*workers=*/1,
                              "id" + std::to_string(shards));
      const std::vector<std::string> via_router =
          RunSequence(fleet->address(), identity, nullptr);
      if (reference.empty()) reference = via_router;
      ok = ok && via_router == reference;
      if (shards == 2) {
        // Bypassing the router: any shard computes (or replays) the same
        // bytes — the determinism contract is per request, not per shard.
        ok = ok &&
             RunSequence(fleet->shard_address(0), identity, nullptr) ==
                 reference &&
             RunSequence(fleet->shard_address(1), identity, nullptr) ==
                 reference;
      }
      fleet->Shutdown();
    }
    rep.identity_ok = ok && !reference.empty();
  }

  // ---- Graceful rolling restart under live load --------------------------
  {
    auto fleet = StartFleet(2, /*workers=*/1, "restart");
    const std::size_t stream_len = smoke ? 24 : 48;
    std::vector<std::string> statuses;
    std::thread streamer([&] {
      ServiceClient client(fleet->address());
      for (std::size_t i = 0; i < stream_len; ++i) {
        ServiceRequest r;
        r.method = ServiceMethod::kAnalyzeSpcf;
        r.circuit_name = identity[i % identity.size()].circuit_name;
        r.guard = 0.23 + 1e-4 * static_cast<double>(i);  // all cold
        statuses.push_back(client.Call(r).status);
      }
    });
    // Roll every shard while the stream runs: drain at the router, shut the
    // shard down (its own drain answers accepted work), restart, restore.
    fleet->RestartShard(0);
    fleet->RestartShard(1);
    streamer.join();
    rep.restart_sent = stream_len;
    for (const std::string& s : statuses) {
      if (s == "ok") ++rep.restart_answered_ok;
    }
    // Zero dropped (every request answered — Call would have thrown on a
    // lost response) and zero rejected: replay hides the rolling restart.
    rep.restart_ok = statuses.size() == stream_len &&
                     rep.restart_answered_ok == stream_len;
    fleet->Shutdown();
  }

  // ---- Throughput scaling with shard count -------------------------------
  // Host-speed phases move any single pass, so each repetition times 1, 2
  // and 4 shards back to back, and the gates read the median of the
  // per-repetition ratios.
  {
    const int clients = 8;
    std::vector<double> tput1, tput2, tput4;
    for (int r = 0; r < kScalingReps; ++r) {
      for (const int shards : {1, 2, 4}) {
        auto fleet =
            StartFleet(shards, /*workers=*/2,
                       "tp" + std::to_string(shards) + "r" + std::to_string(r));
        const double tput =
            MeasureColdThroughput(fleet->address(), yield_set, clients);
        if (shards == 1) tput1.push_back(tput);
        if (shards == 2) tput2.push_back(tput);
        if (shards == 4) tput4.push_back(tput);
        fleet->Shutdown();
      }
      rep.scale2_reps.push_back(tput1.back() > 0 ? tput2.back() / tput1.back()
                                                 : 0);
      rep.scale4_reps.push_back(tput1.back() > 0 ? tput4.back() / tput1.back()
                                                 : 0);
    }
    rep.tput1 = Percentile(tput1, 50);
    rep.tput2 = Percentile(tput2, 50);
    rep.tput4 = Percentile(tput4, 50);
    rep.scale2 = Percentile(rep.scale2_reps, 50);
    rep.scale4 = Percentile(rep.scale4_reps, 50);
    // Scaling needs real parallel hardware; identity/restart gates above
    // hold regardless.
    rep.scale2_gated = cores >= 4;
    rep.scale4_gated = cores >= 8;
    if (rep.scale2_gated) rep.scale2_ok = rep.scale2 >= 1.7;
    if (rep.scale4_gated) rep.scale4_ok = rep.scale4 >= 3.0;
  }

  return rep;
}

Json ToJson(const FleetReport& r) {
  Json obj = Json::MakeObject();
  obj.Set("identity_ok", r.identity_ok);
  obj.Set("restart_sent", r.restart_sent);
  obj.Set("restart_answered_ok", r.restart_answered_ok);
  obj.Set("restart_ok", r.restart_ok);
  obj.Set("throughput_rps_1shard", r.tput1);
  obj.Set("throughput_rps_2shard", r.tput2);
  obj.Set("throughput_rps_4shard", r.tput4);
  obj.Set("scale_2shard", r.scale2);
  obj.Set("scale_4shard", r.scale4);
  Json reps2 = Json::MakeArray();
  for (const double x : r.scale2_reps) reps2.Append(x);
  obj.Set("scale_2shard_reps", std::move(reps2));
  Json reps4 = Json::MakeArray();
  for (const double x : r.scale4_reps) reps4.Append(x);
  obj.Set("scale_4shard_reps", std::move(reps4));
  obj.Set("scale_2shard_gated", r.scale2_gated);
  obj.Set("scale_4shard_gated", r.scale4_gated);
  obj.Set("scale_2shard_ok", r.scale2_ok);
  obj.Set("scale_4shard_ok", r.scale4_ok);
  obj.Set("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  return obj;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseBenchArgs(argc, argv);
  const int clients = opts.threads == 1 ? 8 : opts.threads;

  ServerOptions options;
  options.listen_address =
      "/tmp/speedmask_load_" + std::to_string(::getpid()) + ".sock";
  options.num_workers = 2;
  options.queue_capacity = 64;
  SpeedmaskServer server(options);
  server.Start();

  // ---- Phase 1: cold vs warm cache latency -------------------------------
  const std::vector<ServiceRequest> requests = BuildRequestSet(opts.smoke, 0.1);
  std::vector<double> cold_ms;
  RunSequence(options.listen_address, requests, &cold_ms);
  std::vector<double> warm_ms;
  WallTimer warm_timer;
  const int warm_rounds = opts.smoke ? 5 : 20;
  for (int round = 0; round < warm_rounds; ++round) {
    RunSequence(options.listen_address, requests, &warm_ms);
  }
  const double warm_seconds = warm_timer.Seconds();
  const LatencyStats cold = Summarize(cold_ms);
  const LatencyStats warm = Summarize(warm_ms);
  const double speedup = warm.p50_ms > 0 ? cold.p50_ms / warm.p50_ms : 0;
  const double warm_rps =
      warm_seconds > 0 ? static_cast<double>(warm_ms.size()) / warm_seconds : 0;
  const bool speedup_ok = speedup >= 10.0;

  // ---- Phase 2: 1-vs-N client byte-identity ------------------------------
  // Fresh guard ⇒ fresh cache keys, so the concurrent clients race through
  // cold computes on warm managers, the worst case for determinism.
  const std::vector<ServiceRequest> identity_requests =
      BuildRequestSet(opts.smoke, 0.13);
  const std::vector<std::string> baseline =
      RunSequence(options.listen_address, identity_requests, nullptr);
  std::vector<std::vector<std::string>> per_client(
      static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> threads;
    threads.reserve(per_client.size());
    for (std::size_t c = 0; c < per_client.size(); ++c) {
      threads.emplace_back([&, c] {
        // Different guard per run would change results; same sequence, own
        // connection. Cache may or may not hit depending on interleaving —
        // the bytes must not care.
        per_client[c] =
            RunSequence(options.listen_address, identity_requests, nullptr);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  bool identity_ok = true;
  for (const auto& results : per_client) {
    identity_ok = identity_ok && results == baseline;
  }

  // ---- Phase 3: stats + graceful shutdown of the main daemon -------------
  std::string stats_json;
  std::string shutdown_status;
  {
    ServiceClient client(options.listen_address);
    stats_json = client.Stats().result_json;
    shutdown_status = client.Shutdown().status;
  }
  server.Wait();
  const bool shutdown_ok = shutdown_status == "ok";

  // ---- Phase 4: backpressure on a saturated daemon -----------------------
  Json overload_report = Json::MakeObject();
  const bool overload_ok = RunOverloadProbe(opts.smoke, &overload_report);

  // ---- Phase 5: sharded fleet --------------------------------------------
  const FleetReport fleet = RunFleetPhase(opts.smoke);

  const bool all_ok = speedup_ok && identity_ok && shutdown_ok &&
                      overload_ok && fleet.identity_ok && fleet.restart_ok &&
                      fleet.scale2_ok && fleet.scale4_ok;

  const auto scale_verdict = [](bool gated, bool ok) {
    return gated ? (ok ? "PASS" : "FAIL") : "WAIVED (too few cores)";
  };
  std::cout << "service_load: " << requests.size() << " unique requests, "
            << clients << " concurrent clients\n"
            << "warm-cache speedup >= 10x : "
            << (speedup_ok ? "PASS" : "FAIL") << "\n"
            << "1-vs-" << clients << "-client byte-identity : "
            << (identity_ok ? "PASS" : "FAIL") << "\n"
            << "graceful shutdown         : "
            << (shutdown_ok ? "PASS" : "FAIL") << "\n"
            << "overload backpressure     : "
            << (overload_ok ? "PASS" : "FAIL") << "\n"
            << "fleet byte-identity 1/2/4 shards : "
            << (fleet.identity_ok ? "PASS" : "FAIL") << "\n"
            << "fleet rolling-restart zero-drop  : "
            << (fleet.restart_ok ? "PASS" : "FAIL") << "\n"
            << "fleet 2-shard scaling >= 1.7x    : "
            << scale_verdict(fleet.scale2_gated, fleet.scale2_ok) << "\n"
            << "fleet 4-shard scaling >= 3.0x    : "
            << scale_verdict(fleet.scale4_gated, fleet.scale4_ok) << "\n";

  std::cerr << "fleet throughput (median): " << fleet.tput1 << " / "
            << fleet.tput2 << " / " << fleet.tput4
            << " req/s at 1/2/4 shards (scale " << fleet.scale2 << "x, "
            << fleet.scale4 << "x)\n";

  std::cerr << "cold: p50 " << cold.p50_ms << " ms, p99 " << cold.p99_ms
            << " ms over " << cold.count << " requests\n"
            << "warm: p50 " << warm.p50_ms << " ms, p99 " << warm.p99_ms
            << " ms over " << warm.count << " requests (" << warm_rps
            << " req/s)\n"
            << "cold/warm p50 speedup: " << speedup << "x\n";

  if (!opts.json_path.empty()) {
    Json doc = Json::MakeObject();
    doc.Set("bench", "service_load");
    doc.Set("smoke", opts.smoke);
    doc.Set("clients", clients);
    doc.Set("unique_requests", requests.size());
    doc.Set("cold", ToJson(cold));
    doc.Set("warm", ToJson(warm));
    doc.Set("speedup_p50", speedup);
    doc.Set("warm_requests_per_second", warm_rps);
    doc.Set("identity_ok", identity_ok);
    doc.Set("shutdown_ok", shutdown_ok);
    doc.Set("overload", std::move(overload_report));
    doc.Set("fleet", ToJson(fleet));
    doc.Set("server_stats", Json::Parse(stats_json));
    doc.Set("ok", all_ok);
    WriteBenchJson(opts.json_path, doc);
  }

  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace sm

int main(int argc, char** argv) {
  try {
    return sm::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
