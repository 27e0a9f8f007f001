// serve_mixed: the analysis daemon under open-loop traffic.
//
// An in-process SpeedmaskServer (2 workers, every other option at its
// default) sits behind a FleetRouter with one shard, both on loopback TCP.
// One generator thread per client connection (3 connections) sends a seeded
// Poisson schedule at one fixed offered rate; each request is timed from
// when it was due, so a stall is charged to every request it delays.
//
//   hits   (70%): a warm hot set of named and inline-BLIF circuits covering
//                 analyze_spcf, synthesize_masking, estimate_yield and
//                 inject_campaign — served from the shard's result cache;
//   misses (30%): synthesize_masking, analyze_spcf and a few small
//                 estimate_yield requests on fresh generated circuits sent
//                 as inline BLIF — each runs the whole flow on a worker.
//
// The run's distinct keys stay below the default cache capacity, so the
// shard's cache hits must equal the intended hits with no eviction. After
// the fixed-rate phases the same requests are sent closed-loop to a fresh
// daemon: its saturation throughput is the highest rate it sustains
// without a growing backlog.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.h"
#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "host_speed.h"
#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "network/blif.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "sta/sta.h"
#include "stats.h"
#include "suite/circuit_gen.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kConnections = 3;
constexpr int kWorkers = 2;
constexpr double kFixedRate = 300;          // offered requests per second
constexpr std::size_t kFixedRequests = 1000;
// Fixed-rate phases per run; the median of each figure counts.
constexpr int kFixedPhases = 5;
constexpr int kSaturationRuns = 5;
constexpr std::size_t kMissPercent = 30;
// Every miss of a phase has its own key; the same keys serve every phase,
// each on a fresh daemon.
constexpr std::size_t kMissKeys = kFixedRequests * kMissPercent / 100;
constexpr std::uint64_t kYieldTrials = 200;

struct Key {
  sm::ServiceRequest request;  // id 0
  bool hot = false;
};

struct Planned {
  std::int64_t offset_ns = 0;  // due time relative to the phase start
  std::size_t key = 0;
  std::string payload;
};

struct Outcome {
  OpenLoopSample sample;
  bool ok = false;
  std::string result;
  std::string error;
};

sm::ServiceRequest AnalysisRequest(sm::ServiceMethod method) {
  sm::ServiceRequest r;
  r.method = method;
  r.guard = 0.1;
  if (method == sm::ServiceMethod::kEstimateYield) r.trials = kYieldTrials;
  return r;
}

// Request seeds travel as JSON numbers (doubles), so they are kept to 53
// bits: a larger seed would reach the daemon rounded.
std::uint64_t RequestSeed(std::uint64_t seed, const std::string& label) {
  return DeriveSeed(seed, label) >> 11;
}

std::string Blif(const std::string& name, std::uint64_t seed, int inputs,
                 int outputs, int nodes) {
  sm::CircuitSpec spec;
  spec.name = name;
  spec.num_inputs = inputs;
  spec.num_outputs = outputs;
  spec.target_nodes = nodes;
  spec.seed = seed;
  return sm::WriteBlifString(sm::GenerateCircuit(spec));
}

// The run's distinct analyses: the hot set first, then the misses.
std::vector<Key> BuildKeys(std::uint64_t seed) {
  using M = sm::ServiceMethod;
  std::vector<Key> keys;
  auto named = [&](const char* circuit, M method) {
    Key k{AnalysisRequest(method), true};
    k.request.circuit_name = circuit;
    if (method == M::kEstimateYield) k.request.seed = RequestSeed(seed, circuit);
    keys.push_back(std::move(k));
  };
  auto inline_blif = [&](const std::string& blif, M method, bool hot) {
    Key k{AnalysisRequest(method), hot};
    k.request.circuit_blif = blif;
    if (method == M::kEstimateYield) k.request.seed = RequestSeed(seed, blif);
    keys.push_back(std::move(k));
  };
  for (const char* c : {"i1", "cmb", "x2", "cu"}) named(c, M::kAnalyzeSpcf);
  for (const char* c : {"i1", "x2", "C432"}) named(c, M::kSynthesizeMasking);
  for (const char* c : {"cmb", "cu"}) named(c, M::kEstimateYield);
  for (const char* c : {"cu", "C432"}) named(c, M::kInjectCampaign);
  const std::string hot_a = Blif("hot_a", DeriveSeed(seed, "hot_a"), 12, 5, 40);
  const std::string hot_b = Blif("hot_b", DeriveSeed(seed, "hot_b"), 16, 6, 60);
  inline_blif(hot_a, M::kAnalyzeSpcf, true);
  inline_blif(hot_a, M::kSynthesizeMasking, true);
  inline_blif(hot_b, M::kSynthesizeMasking, true);
  inline_blif(hot_a, M::kEstimateYield, true);
  inline_blif(hot_b, M::kInjectCampaign, true);

  sm::Rng rng(DeriveSeed(seed, "misses"));
  for (std::size_t i = 0; i < kMissKeys; ++i) {
    const std::string name = "m" + std::to_string(i);
    const int inputs = static_cast<int>(rng.Range(8, 16));
    const int outputs = static_cast<int>(rng.Range(2, 6));
    const int nodes = static_cast<int>(rng.Range(20, 60));
    // 45% synthesize_masking, 45% analyze_spcf, 10% small estimate_yield.
    const std::uint64_t pick = rng.Below(20);
    const M method = pick < 9    ? M::kSynthesizeMasking
                     : pick < 18 ? M::kAnalyzeSpcf
                                 : M::kEstimateYield;
    inline_blif(Blif(name, DeriveSeed(seed, name), inputs, outputs, nodes),
                method, false);
  }
  return keys;
}

// The seeded open-loop schedule: kFixedRequests Poisson arrivals at
// kFixedRate, exactly kMissPercent% misses (each miss key once) at seeded
// positions, hits drawn uniformly from the hot set.
std::vector<Planned> BuildPlan(const std::vector<Key>& keys,
                               std::size_t hot_count, std::uint64_t seed) {
  sm::Rng rng(DeriveSeed(seed, "plan"));
  const std::size_t count = kFixedRequests;
  std::vector<char> is_miss(count, 0);
  std::fill(is_miss.begin(),
            is_miss.begin() + static_cast<std::ptrdiff_t>(kMissKeys), 1);
  for (std::size_t i = count; i > 1; --i) {  // Fisher-Yates
    std::swap(is_miss[i - 1], is_miss[rng.Below(i)]);
  }
  std::vector<Planned> plan(count);
  double t_s = 0;
  std::size_t next_miss = hot_count;
  for (std::size_t i = 0; i < count; ++i) {
    t_s += -std::log(1.0 - rng.Uniform()) / kFixedRate;
    plan[i].offset_ns = static_cast<std::int64_t>(t_s * 1e9);
    plan[i].key = is_miss[i] ? next_miss++ : rng.Below(hot_count);
    sm::ServiceRequest r = keys[plan[i].key].request;
    r.id = i + 1;
    plan[i].payload = sm::SerializeRequest(r);
  }
  return plan;
}

// Server + one-shard router on loopback TCP, stopped on destruction.
class Daemon {
 public:
  Daemon() {
    sm::ServerOptions server_options;
    server_options.listen_address = "127.0.0.1:0";
    server_options.num_workers = kWorkers;
    server_ = std::make_unique<sm::SpeedmaskServer>(server_options);
    server_->Start();
    sm::RouterOptions router_options;
    router_options.listen_address = "127.0.0.1:0";
    router_options.shards = {server_->address()};
    router_ = std::make_unique<sm::FleetRouter>(router_options);
    router_->Start();
  }
  ~Daemon() {
    router_->Shutdown();
    router_->Wait();
    server_->Shutdown();
    server_->Wait();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return router_->address(); }
  sm::SpeedmaskServer& server() { return *server_; }
  sm::FleetRouter& router() { return *router_; }

 private:
  std::unique_ptr<sm::SpeedmaskServer> server_;
  std::unique_ptr<sm::FleetRouter> router_;
};

// Sends every hot key once so that later hot requests hit the cache.
// Returns the hot result bytes; throws when a warm-up request fails.
std::vector<std::string> WarmHotSet(const std::string& address,
                                    const std::vector<Key>& keys,
                                    std::size_t hot_count) {
  sm::ServiceClient client(address);
  std::vector<std::string> results;
  for (std::size_t k = 0; k < hot_count; ++k) {
    const sm::ServiceResponse resp = client.Call(keys[k].request);
    if (!resp.ok()) {
      throw std::runtime_error("hot-set warm-up failed: " + resp.status + " " +
                               resp.error);
    }
    results.push_back(resp.result_json);
  }
  return results;
}

// Sleeps until shortly before `due_ns`, then spins: a sleeping thread can
// wake a scheduler tick late, which would count as generator lateness.
void WaitUntil(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 300'000;
  const std::int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

// Runs `plan` open-loop over `connections` connections: a free connection
// takes the next request, waits until it is due and sends it (with
// `closed_loop`, sends it at once). When `tracer` is enabled each
// connection records a "serve.request" span per request in its own tracer,
// merged into `tracer` after the phase.
std::vector<Outcome> RunOpenLoop(const std::string& address,
                                 const std::vector<Planned>& plan,
                                 Tracer& tracer, bool closed_loop = false,
                                 int connections = kConnections) {
  std::vector<Outcome> out(plan.size());
  std::vector<std::unique_ptr<sm::ServiceClient>> clients;
  std::vector<Tracer> thread_tracers;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<sm::ServiceClient>(address));
    thread_tracers.emplace_back(tracer.enabled());
  }
  std::atomic<std::size_t> next{0};
  const std::int64_t base = NowNs() + 5'000'000;
  auto sender = [&](sm::ServiceClient& client, Tracer& spans) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.size()) return;
      Outcome& o = out[i];
      o.sample.ready_ns = NowNs();
      o.sample.due_ns = closed_loop ? o.sample.ready_ns : base + plan[i].offset_ns;
      WaitUntil(o.sample.due_ns);
      o.sample.sent_ns = NowNs();
      try {
        const sm::ServiceResponse resp =
            sm::ParseResponse(client.Exchange(plan[i].payload));
        o.ok = resp.ok();
        o.result = resp.result_json;
        o.error = resp.status + " " + resp.error;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      o.sample.done_ns = NowNs();
      spans.Record("serve.request", o.sample.sent_ns, o.sample.done_ns, i + 1);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(sender, std::ref(*clients[static_cast<std::size_t>(c)]),
                         std::ref(thread_tracers[static_cast<std::size_t>(c)]));
  }
  for (auto& t : threads) t.join();
  for (const Tracer& t : thread_tracers) {
    for (const Span& span : t.spans()) {
      tracer.Record(span.name, span.start_ns, span.end_ns, span.request);
    }
  }
  return out;
}

// The daemon's ComputeResult for one request, in process with a fresh
// manager — the bytes every daemon response must equal.
std::string InProcessResult(const sm::ServiceRequest& r,
                            const sm::Library& lib) {
  const sm::Network circuit = sm::ResolveCircuit(r);
  if (r.method == sm::ServiceMethod::kAnalyzeSpcf) {
    const sm::TechMapResult mapped = sm::DecomposeAndMap(circuit, lib);
    const sm::TimingInfo timing = sm::AnalyzeTiming(mapped.netlist);
    sm::BddManager mgr(static_cast<int>(circuit.NumInputs()));
    sm::SpcfOptions spcf_options;
    spcf_options.algorithm = r.algorithm;
    spcf_options.guard_band = r.guard;
    const sm::SpcfResult spcf =
        sm::ComputeSpcf(mgr, mapped.netlist, timing, spcf_options);
    return sm::EncodeSpcfResult(circuit.name(), mgr, mapped.netlist, timing,
                                spcf);
  }
  sm::FlowOptions flow_options;
  flow_options.spcf.guard_band = r.guard;
  flow_options.synth = sm::SynthOptionsForEffort(static_cast<int>(r.effort));
  const sm::FlowResult flow = sm::RunMaskingFlow(circuit, lib, flow_options);
  if (r.method == sm::ServiceMethod::kSynthesizeMasking) {
    return sm::EncodeFlowResult(flow);
  }
  if (r.method == sm::ServiceMethod::kEstimateYield) {
    sm::YieldMcOptions yield_options;
    yield_options.trials = r.trials;
    yield_options.seed = r.seed;
    yield_options.model.sigma = r.sigma;
    yield_options.guard_band = r.guard;
    return sm::EncodeYieldResult(flow, sm::EstimateTimingYield(flow, yield_options));
  }
  sm::InjectOptions inject_options;
  inject_options.strategy = r.strategy;
  inject_options.fault_kind = r.fault;
  inject_options.max_sites = r.sites;
  inject_options.vectors_per_site = r.vectors;
  inject_options.delta_fraction = r.delta_fraction;
  inject_options.seed = r.seed;
  return sm::EncodeInjectResult(flow, r,
                                sm::RunFaultInjectionCampaign(flow, inject_options));
}


struct Setup {
  std::vector<Key> keys;
  std::size_t hot_count = 0;
  std::vector<Planned> plan;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> hot_results;
};

std::unique_ptr<Daemon> StartWarmDaemon(const Setup& s,
                                        std::vector<std::string>* hot_results) {
  auto daemon = std::make_unique<Daemon>();
  std::vector<std::string> results =
      WarmHotSet(daemon->address(), s.keys, s.hot_count);
  if (hot_results != nullptr) *hot_results = std::move(results);
  return daemon;
}

std::string PercentileName(double p) {
  return "p" + sm::JsonNumberToString(p);
}

// Latencies of one class of requests.
struct ClassLatency {
  std::vector<double> ms;
  double p50() const { return Median(ms); }
  double tail_p() const { return TailPercentile(ms.size()); }
  double tail() const { return Percentile(ms, tail_p()); }
};

// One fixed-rate phase on a warm daemon, with the stats around it.
struct Phase {
  std::vector<Outcome> out;
  sm::ServiceStatsSnapshot before;
  sm::ServiceStatsSnapshot after;
  sm::Json router_before;
  sm::Json router_after;
  ClassLatency hit;
  ClassLatency miss;
  std::vector<double> round_trip_ms;  // sent → done
  std::vector<double> late_ms;
};

Phase RunPhase(Daemon& daemon, const Setup& s, Tracer& tracer,
               bool closed_loop = false, int connections = kConnections) {
  Phase p;
  p.before = daemon.server().SnapshotStats();
  p.router_before = sm::Json::Parse(daemon.router().AggregateStatsJson());
  p.out = RunOpenLoop(daemon.address(), s.plan, tracer, closed_loop,
                      connections);
  p.after = daemon.server().SnapshotStats();
  p.router_after = sm::Json::Parse(daemon.router().AggregateStatsJson());
  for (std::size_t i = 0; i < p.out.size(); ++i) {
    const OpenLoopTiming t = AccountOpenLoop(p.out[i].sample);
    (s.plan[i].key < s.hot_count ? p.hit : p.miss).ms.push_back(t.latency_ms);
    p.late_ms.push_back(t.generator_late_ms);
    p.round_trip_ms.push_back(
        Millis(p.out[i].sample.done_ns - p.out[i].sample.sent_ns));
  }
  return p;
}

// Counts every request of the phase as an operation and checks it: status
// ok, result bytes equal to the in-process bytes of its key, and the shard's
// cache hits equal to the intended hits with no eviction.
void CheckPhase(const Phase& p, const Setup& s,
                const std::vector<std::string>& expected, Ledger& ledger) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < p.out.size(); ++i) {
    const bool is_hit = s.plan[i].key < s.hot_count;
    const std::string kind = is_hit ? "serve:hit" : "serve:miss";
    ledger.Attempt(kind);
    if (!ledger.Check(p.out[i].ok, kind, "response not ok: " + p.out[i].error)) {
      continue;
    }
    if (is_hit) ++hits;
    ledger.Check(p.out[i].result == expected[s.plan[i].key], kind,
                 "daemon bytes differ from in-process bytes");
  }
  const std::uint64_t cache_hits = p.after.cache.hits - p.before.cache.hits;
  ledger.Check(cache_hits == hits, "serve:hit",
               "shard cache hits " + std::to_string(cache_hits) +
                   " != intended hits " + std::to_string(hits));
  ledger.Check(p.after.cache.evictions == 0, "serve:hit",
               "the shard's cache evicted entries");
}

// Requests per second of a phase, from the first send to the last reply.
double AchievedRps(const Phase& p) {
  std::int64_t first = p.out.front().sample.sent_ns;
  std::int64_t last = 0;
  for (const Outcome& o : p.out) {
    first = std::min(first, o.sample.sent_ns);
    last = std::max(last, o.sample.done_ns);
  }
  return static_cast<double>(p.out.size()) / Seconds(last - first);
}

double RouterCounter(const sm::Json& stats, const std::string& key) {
  return stats.Find("router")->GetDouble(key, 0);
}

}  // namespace

void RunServeMixed(const BenchArgs& args, Tracer& tracer, Report& report) {
  // Set-up: inputs (hot set, miss circuits, schedule), daemon and router
  // start, hot-set warm-up — several times; the median counts.
  Setup setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const HostSpeed speed;
    const std::int64_t t0 = NowNs();
    Setup s;
    s.keys = BuildKeys(args.seed);
    s.hot_count = static_cast<std::size_t>(
        std::count_if(s.keys.begin(), s.keys.end(),
                      [](const Key& k) { return k.hot; }));
    s.plan = BuildPlan(s.keys, s.hot_count, args.seed);
    s.daemon = StartWarmDaemon(s, &s.hot_results);
    setup_s.push_back(Seconds(NowNs() - t0) * speed.Scale());
    setup = std::move(s);
  }
  report.Set("setup_s", Median(setup_s));

  // Reference bytes of every distinct key, computed in process (a check,
  // outside set-up and timing), and the hot set as the daemon served it.
  const sm::Library lib = sm::Lsi10kLike();
  std::vector<std::string> expected(setup.keys.size());
  for (std::size_t k = 0; k < setup.keys.size(); ++k) {
    try {
      expected[k] = InProcessResult(setup.keys[k].request, lib);
    } catch (const std::exception& e) {
      expected[k] = std::string("in-process analysis threw: ") + e.what();
    }
  }
  for (std::size_t k = 0; k < setup.hot_count; ++k) {
    if (setup.hot_results[k] != expected[k]) {
      report.ledger.FailAll("serve:hit", "hot key " + std::to_string(k) +
                                             " differs from in-process bytes");
    }
  }
  if (args.seed == kDefaultSeed) {
    std::string hot_bytes;
    std::string miss_bytes;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      (k < setup.hot_count ? hot_bytes : miss_bytes) += expected[k] + "\n";
    }
    report.digests.Check(report.ledger, "serve_mixed/hot", "serve:hit",
                         hot_bytes);
    report.digests.Check(report.ledger, "serve_mixed/miss", "serve:miss",
                         miss_bytes);
  }

  // Fixed-rate phases, each on a fresh warm daemon (the first on the set-up
  // one). In a traced run the middle phase is the traced one.
  Tracer untraced(false);
  std::vector<Phase> done;
  for (int i = 0; i < kFixedPhases; ++i) {
    if (i > 0) setup.daemon = StartWarmDaemon(setup, nullptr);
    const bool traced = tracer.enabled() && i == kFixedPhases / 2;
    done.push_back(RunPhase(*setup.daemon, setup, traced ? tracer : untraced));
    CheckPhase(done.back(), setup, expected, report.ledger);
  }
  auto median_of = [&](auto stat) {
    std::vector<double> v;
    for (const Phase& p : done) v.push_back(stat(p));
    return Median(v);
  };
  // p50s are medians over phases (robust to one noisy phase); the tails pool
  // every phase, so at least 10 samples lie beyond each.
  const double hit_p50 = median_of([](const Phase& p) { return p.hit.p50(); });
  ClassLatency hits;
  ClassLatency misses;
  std::vector<double> late_ms;
  for (const Phase& p : done) {
    hits.ms.insert(hits.ms.end(), p.hit.ms.begin(), p.hit.ms.end());
    misses.ms.insert(misses.ms.end(), p.miss.ms.begin(), p.miss.ms.end());
    late_ms.insert(late_ms.end(), p.late_ms.begin(), p.late_ms.end());
  }
  report.Show("serve.hit_p50_ms", "ms", hit_p50);
  report.Show("serve.hit_" + PercentileName(hits.tail_p()) + "_ms", "ms",
              hits.tail());
  report.Show("serve.miss_p50_ms", "ms",
              median_of([](const Phase& p) { return p.miss.p50(); }));
  report.Show("serve.miss_" + PercentileName(misses.tail_p()) + "_ms", "ms",
              misses.tail());
  report.Show("serve.requests", "count",
              static_cast<double>(hits.ms.size() + misses.ms.size()));
  report.Show("bench.gen_late_p99_ms", "ms", Percentile(late_ms, 99));

  if (!tracer.enabled()) {
    // Closed loop: the same requests sent at once on a fresh warm daemon,
    // kSaturationRuns times each way, alternating. Over kConnections
    // connections the throughput is the saturation rate: any offered rate
    // above it makes the backlog grow. Over one connection one request is in
    // flight at a time, so the time per request is the mix's mean latency.
    // Both are gated at reference host speed (see host_speed.h).
    std::vector<double> rps;
    std::vector<double> ref_rps;
    std::vector<double> serial_ms;
    std::vector<double> ref_serial_ms;
    for (int i = 0; i < kSaturationRuns; ++i) {
      for (const int connections : {kConnections, 1}) {
        setup.daemon = StartWarmDaemon(setup, nullptr);
        const HostSpeed speed;
        const Phase run = RunPhase(*setup.daemon, setup, untraced,
                                   /*closed_loop=*/true, connections);
        const double scale = speed.Scale();
        CheckPhase(run, setup, expected, report.ledger);
        if (connections == 1) {
          serial_ms.push_back(1e3 / AchievedRps(run));
          ref_serial_ms.push_back(serial_ms.back() * scale);
        } else {
          rps.push_back(AchievedRps(run));
          ref_rps.push_back(rps.back() / scale);
        }
      }
    }
    report.Set("throughput_per_s", Median(ref_rps));
    report.Set("latency_ms", Median(ref_serial_ms));
    report.Show("serve.max_rps", "1/s", Median(rps));
    report.Show("serve.serial_mean_ms", "ms", Median(serial_ms));
    return;
  }

  // ResolveCircuit + HashNetwork over the workload's own request stream:
  // what the shard's reader thread and the router do before a lookup. Every
  // request of one key must hash alike, or its cache hits would be misses.
  std::map<std::size_t, std::uint64_t> key_hash;
  for (std::size_t i = 0; i < setup.plan.size(); ++i) {
    std::uint64_t h = 0;
    {
      const Tracer::Scope span(tracer, "service.resolve_hash", i + 1);
      h = sm::HashNetwork(
          sm::ResolveCircuit(sm::ParseRequest(setup.plan[i].payload)));
    }
    const auto [it, first] = key_hash.emplace(setup.plan[i].key, h);
    report.ledger.Check(first || it->second == h, "serve:hit",
                        "one circuit hashed two ways");
  }
  const Phase& traced = done[kFixedPhases / 2];
  const auto self = SelfTimesNs(tracer.spans());
  report.Set("service.resolve_hash_ms", Millis(self.at("service.resolve_hash")));
  report.Set("service.server_p50_ms", traced.after.p50_ms);
  report.Set("service.server_p99_ms", traced.after.p99_ms);
  report.Set("service.transport_ms",
             Median(traced.round_trip_ms) - traced.after.p50_ms);
  const double requests = static_cast<double>(traced.out.size());
  report.Set("service.cache_hit_ratio",
             static_cast<double>(traced.after.cache.hits -
                                 traced.before.cache.hits) /
                 requests);
  report.Set("service.cache_evictions",
             static_cast<double>(traced.after.cache.evictions));
  report.Set("service.overloaded",
             static_cast<double>(traced.after.overloaded - traced.before.overloaded));
  report.Set("service.timeouts",
             static_cast<double>(traced.after.timeouts - traced.before.timeouts));
  report.Set("fleet.forwarded",
             RouterCounter(traced.router_after, "forwarded") -
                 RouterCounter(traced.router_before, "forwarded"));
  const sm::Json* key_cache =
      traced.router_after.Find("router")->Find("routing_key_cache");
  const double key_hits = key_cache->GetDouble("hits", 0);
  const double key_misses = key_cache->GetDouble("misses", 0);
  report.Set("fleet.key_cache_hit_ratio", Ratio(key_hits, key_hits + key_misses));
  report.Set("fleet.replays", RouterCounter(traced.router_after, "replays"));
  report.Set("fleet.failovers", RouterCounter(traced.router_after, "failovers"));
  std::uint64_t gc_runs = 0;
  for (const std::uint64_t g : traced.after.worker_gc_runs) gc_runs += g;
  report.Set("bdd.worker_gc_runs", static_cast<double>(gc_runs));
  report.Set("service.worker_manager_nodes",
             static_cast<double>(traced.after.manager_nodes));
  report.Set("bench.gen_late_p99_ms", Percentile(traced.late_ms, 99));
  std::vector<double> untraced_p50;
  for (const Phase& p : done) {
    if (&p != &traced) untraced_p50.push_back(p.hit.p50());
  }
  report.Set("trace.overhead_frac", traced.hit.p50() / Median(untraced_p50) - 1);
}

}  // namespace perfbench
