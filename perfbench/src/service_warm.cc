// service_warm: warlockd round trips while the kernels do nothing. An
// in-process server on loopback (2 workers) serves two client connections,
// each with its own op list: about 70% what-if requests (a memo result hit
// plus a query-stats render) and 30% advise requests (a rendered-payload
// hit). This isolates framing, parsing, content hashing, the session cache
// and report rendering.

#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

#include "api/session.h"
#include "replay.h"
#include "report/renderer.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

namespace wl = warlock;

namespace {

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kConnections = 2;
// Round trips per second over both connections on the reference machine.
constexpr double kNominalOpsPerSecond = 8400.0;
constexpr uint32_t kVariantsPerType = 1;
constexpr uint32_t kRanks = 3;

// The direct path: one session per variant, advised once, plus every
// request body and the payload warlockd must answer it with (its byte-parity
// contract with a direct Session + report::Renderer render).
struct Expected {
  std::vector<wl::Session> sessions;
  std::vector<wl::AdviseResponse> advice;
  std::vector<std::string> advise_bodies;
  std::vector<std::string> advise_payloads;
  std::vector<std::string> whatif_bodies;
  std::vector<std::string> whatif_payloads;
  std::vector<wl::WhatIfRequest> whatif_requests;
  std::vector<wl::core::EvaluatedCandidate> whatif_candidates;
};

Status BuildExpected(const std::vector<InputVariant>& variants,
                     const ServicePlan& plan, Tracer& tracer,
                     LayerFacts* facts, Expected& e) {
  const auto renderer =
      wl::report::Renderer::Create(wl::report::OutputFormat::kJson);
  for (const InputVariant& v : variants) {
    wl::SessionOptions options;
    options.threads = kAdvisorWorkers;
    auto session = [&] {
      Tracer::Scope span(tracer, "api.session_build", 0);
      return wl::Session::FromText(v.schema_text, v.workload_text,
                                   v.config_text, options);
    }();
    if (!session.ok()) return session.status();
    auto advice = facts != nullptr
                      ? TracedAdvise(tracer, 0, *session, {}, *facts)
                      : session->Advise();
    if (!advice.ok()) return advice.status();
    if (advice->result.ranking.size() < kRanks) {
      return Status::FailedPrecondition(v.name + ": ranking shorter than 3");
    }
    e.sessions.push_back(std::move(session).value());
    e.advice.push_back(std::move(advice).value());
  }
  for (const AdvisePoint& p : plan.advise_points) {
    const InputVariant& v = variants[p.variant];
    e.advise_bodies.push_back(wl::service::AdviseRequestJson(
        {v.schema_text, v.workload_text, v.config_text, p.top_k, {}, {}}));
    wl::core::AdvisorResult result = e.advice[p.variant].result;
    if (result.ranking.size() > p.top_k) result.ranking.resize(p.top_k);
    WARLOCK_ASSIGN_OR_RETURN(
        std::string payload,
        renderer->Ranking(result, e.sessions[p.variant].schema()));
    e.advise_payloads.push_back(std::move(payload));
  }
  for (const WhatIfPoint& p : plan.whatif_points) {
    const InputVariant& v = variants[p.variant];
    const wl::Session& session = e.sessions[p.variant];
    const auto& result = e.advice[p.variant].result;
    wl::WhatIfRequest request;
    request.fragmentation =
        result.candidates[result.ranking[p.rank]].fragmentation;
    request.overrides = p.knobs.ToOverrides();
    WARLOCK_ASSIGN_OR_RETURN(wl::WhatIfResponse response,
                             session.WhatIf(request));
    WARLOCK_ASSIGN_OR_RETURN(
        std::string payload,
        renderer->QueryStats(response.candidate, session.mix(),
                             session.schema()));
    wl::service::WhatIfCall call;
    call.schema_text = v.schema_text;
    call.workload_text = v.workload_text;
    call.config_text = v.config_text;
    call.fragmentation =
        FragmentationNames(request.fragmentation, session.schema());
    call.num_disks = p.knobs.disks;
    if (p.knobs.granules) {
      call.fact_granule = p.knobs.granules->first;
      call.bitmap_granule = p.knobs.granules->second;
    }
    call.allocator = p.knobs.allocator;
    e.whatif_bodies.push_back(wl::service::WhatIfRequestJson(call));
    e.whatif_payloads.push_back(std::move(payload));
    e.whatif_requests.push_back(std::move(request));
    e.whatif_candidates.push_back(std::move(response.candidate));
  }
  return Status::OK();
}

const std::string& Body(const Expected& e, const ServiceOp& op) {
  return op.advise ? e.advise_bodies[op.point] : e.whatif_bodies[op.point];
}
const std::string& Payload(const Expected& e, const ServiceOp& op) {
  return op.advise ? e.advise_payloads[op.point] : e.whatif_payloads[op.point];
}

bool ResponseMatches(const wl::Result<wl::service::Response>& r,
                     const std::string& payload) {
  return r.ok() && r->status.ok() && r->payload == payload;
}

// Starts a server and warms every session, advise payload and what-if point
// over one connection, which is closed before returning.
Status StartWarm(const Expected& e, std::optional<wl::service::Server>& server) {
  wl::service::ServerOptions options;
  options.workers = kServerWorkers;
  options.session_threads = kAdvisorWorkers;
  server.emplace(options);
  WARLOCK_RETURN_IF_ERROR(server->Start());
  WARLOCK_ASSIGN_OR_RETURN(
      wl::service::Client warm,
      wl::service::Client::Connect("127.0.0.1", server->port()));
  for (size_t i = 0; i < e.advise_bodies.size(); ++i) {
    if (!ResponseMatches(warm.Call(e.advise_bodies[i]), e.advise_payloads[i])) {
      return Status::Internal("advise warm-up mismatch");
    }
  }
  for (size_t i = 0; i < e.whatif_bodies.size(); ++i) {
    if (!ResponseMatches(warm.Call(e.whatif_bodies[i]), e.whatif_payloads[i])) {
      return Status::Internal("what-if warm-up mismatch");
    }
  }
  return Status::OK();
}

struct Pass {
  std::vector<double> latencies_ms;
  Tally tally;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  double rtt_ns_sum = 0.0;
  bool connected = true;
};

// Runs each connection's op list on its own client thread. Each connection
// first makes one untimed health call, which also waits out a worker still
// draining an earlier connection.
Pass RunPass(const Expected& e, const ServicePlan& plan, uint16_t port,
             Tracer& tracer, size_t limit) {
  Pass pass;
  const size_t n = plan.connections.size();
  std::vector<std::vector<double>> lat(n);
  std::vector<Tally> tallies(n);
  std::vector<double> rtt(n, 0.0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> connected{true};
  int64_t start = 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      auto client = wl::service::Client::Connect("127.0.0.1", port);
      if (!client.ok() || !client->Health().ok()) connected = false;
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (!connected) return;
      const std::vector<ServiceOp>& ops = plan.connections[c];
      const size_t count = std::min(limit, ops.size());
      lat[c].reserve(count);
      for (size_t i = 0; i < count; ++i) {
        const int64_t t0 = NowNs();
        auto response = [&] {
          Tracer::Scope span(tracer, "service.client_call", c * ops.size() + i);
          return client->Call(Body(e, ops[i]));
        }();
        const int64_t t1 = NowNs();
        lat[c].push_back(static_cast<double>(t1 - t0) / 1e6);
        rtt[c] += static_cast<double>(t1 - t0);
        tallies[c].Add(ResponseMatches(response, Payload(e, ops[i])));
      }
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  ResetPeakRss();
  start = NowNs();
  go = true;
  for (std::thread& t : threads) t.join();
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  pass.peak_rss_mib = PeakRssMiB();
  pass.connected = connected;
  for (size_t c = 0; c < n; ++c) {
    pass.latencies_ms.insert(pass.latencies_ms.end(), lat[c].begin(),
                             lat[c].end());
    pass.tally.attempted += tallies[c].attempted;
    pass.tally.failed += tallies[c].failed;
    pass.rtt_ns_sum += rtt[c];
  }
  return pass;
}

// Replays the layer calls of a sample of ops on the direct path: the cold
// pipeline of the op's candidate, the service bodies, and (for what-if ops)
// the same WhatIf on the direct session, whose registry delta stands in for
// the server session's.
bool ReplaySample(const std::vector<InputVariant>& variants,
                  const ServicePlan& plan, const Expected& e, Tracer& tracer,
                  LayerFacts& facts) {
  bool ok = true;
  const auto renderer =
      wl::report::Renderer::Create(wl::report::OutputFormat::kJson);
  const std::vector<ServiceOp>& ops = plan.connections[0];
  const size_t stride = ReplayStride(ops.size());
  for (size_t i = 0; i < ops.size(); i += stride) {
    const ServiceOp& op = ops[i];
    const uint32_t variant = op.advise ? plan.advise_points[op.point].variant
                                       : plan.whatif_points[op.point].variant;
    const InputVariant& v = variants[variant];
    const wl::Session& session = e.sessions[variant];
    ReplayTarget target{&session.schema(), &session.mix(), &session.config(),
                        nullptr, {}};
    if (op.advise) {
      const auto& result = e.advice[variant].result;
      target.candidate = &result.candidates[result.ranking[0]];
      Tracer::Scope span(tracer, "report.ranking_json", i);
      ok &= renderer->Ranking(result, session.schema()).ok();
    } else {
      const wl::WhatIfRequest& request = e.whatif_requests[op.point];
      target.candidate = &e.whatif_candidates[op.point];
      target.overrides = request.overrides;
      const RegistryTotals before = ReadRegistry(session.metrics());
      ok &= session.WhatIf(request).ok();
      Accumulate(facts.op_delta, Delta(ReadRegistry(session.metrics()), before));
    }
    ++facts.ops;
    ok &= ReplayPipeline(tracer, i, target);
    ok &= ReplayServiceBodies(tracer, i, Body(e, op),
                              op.advise ? "advise" : "whatif", Payload(e, op),
                              v.schema_text, v.workload_text, v.config_text);
  }
  return ok;
}

}  // namespace

Outcome RunServiceWarm(const RunArgs& args) {
  Outcome out;
  if (!ValidateServiceBudget(kServerWorkers, kConnections).ok() ||
      !ValidateThreadBudget(kAdvisorWorkers + 1).ok()) {
    out.correct = false;
    return out;
  }
  const std::vector<InputVariant> variants = ApbVariants(args.seed, kVariantsPerType);
  std::vector<uint32_t> base_disks;
  for (const InputVariant& v : variants) base_disks.push_back(v.disks);
  const size_t per_connection =
      LatencyOpCount(args.seconds, kNominalOpsPerSecond) / kConnections;
  const ServicePlan plan = MakeServicePlan(args.seed, per_connection,
                                           kConnections, base_disks, kRanks);
  Tracer tracer(args.trace);
  LayerFacts facts;
  Expected expected;
  if (!BuildExpected(variants, plan, tracer, args.trace ? &facts : nullptr,
                     expected)
           .ok()) {
    out.correct = false;
    return out;
  }

  // Setup, kSetupRepeats times: a fresh server warmed over one connection.
  std::vector<double> setup_s;
  std::optional<wl::service::Server> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const int64_t t0 = NowNs();
    out.correct &= StartWarm(expected, server).ok();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (!out.correct) return out;

  Tracer off(false);
  Pass untraced = RunPass(expected, plan, server->port(), off, per_connection);
  Tally tally = untraced.tally;
  out.correct &= untraced.connected;

  if (!args.trace) {
    out.metrics = EndToEndMetrics(
        untraced.latencies_ms,
        Rate(untraced.latencies_ms.size(), untraced.wall_s), Median(setup_s),
        untraced.peak_rss_mib);
  } else {
    const wl::service::ServerStats s0 = server->stats();
    const RegistryTotals r0 = ReadRegistry(server->metrics());
    Pass traced = RunPass(expected, plan, server->port(), tracer, per_connection);
    const RegistryTotals d = Delta(ReadRegistry(server->metrics()), r0);
    const wl::service::ServerStats s1 = server->stats();
    out.correct &= traced.connected;
    tally.attempted += traced.tally.attempted;
    tally.failed += traced.tally.failed;
    facts.server_us_sum = d.Get("server.latency_us.advise.sum") +
                          d.Get("server.latency_us.whatif.sum");
    facts.server_requests =
        static_cast<uint64_t>(d.Get("server.latency_us.advise.count") +
                              d.Get("server.latency_us.whatif.count"));
    facts.client_rtt_ns_sum = traced.rtt_ns_sum;
    facts.client_calls = traced.latencies_ms.size();
    facts.session_cache_hits = s1.cache.hits - s0.cache.hits;
    facts.session_cache_lookups =
        facts.session_cache_hits + (s1.cache.misses - s0.cache.misses);
    facts.advise_payload_hits = s1.advise_payload_hits - s0.advise_payload_hits;
    facts.advise_requests =
        static_cast<uint64_t>(d.Get("server.requests.advise"));
    facts.untraced_op_ms = Mean(untraced.latencies_ms);
    facts.traced_op_ms = Mean(traced.latencies_ms);
    // Pool speedup: the workload's connections against one connection
    // running a prefix of the same ops.
    ServicePlan single = plan;
    single.connections.resize(1);
    Pass one = RunPass(expected, single, server->port(), off, 2000);
    tally.attempted += one.tally.attempted;
    tally.failed += one.tally.failed;
    facts.pool_speedup = Rate(untraced.latencies_ms.size(), untraced.wall_s) /
                         Rate(one.latencies_ms.size(), one.wall_s);
    out.correct &= ReplaySample(variants, plan, expected, tracer, facts);
    out.correct &= ControlSweep(tracer, args.seed, facts).ok();
    out.correct &= tracer.WriteJsonl(SpansPath(args)).ok();
    out.metrics = PerLayerMetrics(tracer, facts);
  }
  server->Shutdown();
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct &= tally.failed == 0;
  return out;
}

}  // namespace perfbench
