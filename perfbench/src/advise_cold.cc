// advise_cold: a DBA's first contact. One op builds a fresh session from the
// input texts, advises with auto granules and renders the ranking as JSON.
// Nothing is cached, so the prefetch-granule search dominates.

#include "api/session.h"
#include "replay.h"
#include "report/renderer.h"
#include "service/client.h"
#include "workloads.h"

namespace perfbench {

namespace wl = warlock;

namespace {

// Cold Advise calls per second on kAdvisorWorkers on the reference machine.
constexpr double kNominalOpsPerSecond = 8.0;
// 32 input variants: a run's latencies pool over enough seeded inputs that
// the choice of seed moves its median by a few percent, not by ten.
constexpr uint32_t kVariantsPerType = 8;

struct OpRun {
  OpOutput output;
  double ms = 0.0;
  // Kept alive past the timed window for the traced replay.
  std::optional<wl::Session> session;
  std::optional<wl::AdviseResponse> response;
};

// One op. Its timed window covers build, advise and render; the session is
// destroyed after the window closes.
OpRun AdviseOp(const InputVariant& v, unsigned threads, Tracer& tracer,
               uint64_t op, LayerFacts* facts) {
  OpRun run;
  wl::SessionOptions options;
  options.threads = threads;
  const int64_t t0 = NowNs();
  auto session = [&] {
    Tracer::Scope span(tracer, "api.session_build", op);
    return wl::Session::FromText(v.schema_text, v.workload_text,
                                 v.config_text, options);
  }();
  if (session.ok()) {
    auto response = facts != nullptr
                        ? TracedAdvise(tracer, op, *session, {}, *facts)
                        : session->Advise();
    if (response.ok()) {
      Tracer::Scope span(tracer, "report.ranking_json", op);
      auto json = wl::report::Renderer::Create(wl::report::OutputFormat::kJson)
                      ->Ranking(response->result, session->schema());
      run.output.ok = json.ok();
      if (json.ok()) run.output.text = std::move(json).value();
      span.set_work(run.output.text.size());
      run.response.emplace(std::move(response).value());
    }
    run.session.emplace(std::move(session).value());
  }
  run.ms = static_cast<double>(NowNs() - t0) / 1e6;
  return run;
}

struct Pass {
  std::vector<double> latencies_ms;
  std::vector<OpOutput> outputs;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  bool replays_ok = true;
};

Pass RunPass(const std::vector<InputVariant>& variants,
             const std::vector<uint32_t>& ops, Tracer& tracer,
             LayerFacts* facts) {
  Pass pass;
  const size_t stride = ReplayStride(ops.size());
  ResetPeakRss();
  const int64_t start = NowNs();
  int64_t replay_ns = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const InputVariant& v = variants[ops[i]];
    OpRun run = AdviseOp(v, kAdvisorWorkers, tracer, i, facts);
    pass.latencies_ms.push_back(run.ms);
    if (facts != nullptr && i % stride == 0 && run.response &&
        !run.response->result.ranking.empty()) {
      const int64_t r0 = NowNs();
      const auto& ranking = run.response->result.ranking;
      const wl::core::EvaluatedCandidate& cand =
          run.response->result.candidates[ranking[i % ranking.size()]];
      ReplayTarget target{&run.session->schema(), &run.session->mix(),
                          &run.session->config(), &cand, {}};
      pass.replays_ok &= ReplayPipeline(tracer, i, target);
      wl::service::AdviseCall call{v.schema_text, v.workload_text,
                                   v.config_text, {}, {}, {}};
      pass.replays_ok &= ReplayServiceBodies(
          tracer, i, wl::service::AdviseRequestJson(call), "advise",
          run.output.text, v.schema_text, v.workload_text, v.config_text);
      replay_ns += NowNs() - r0;
    }
    pass.outputs.push_back(std::move(run.output));
  }
  pass.wall_s = static_cast<double>(NowNs() - start - replay_ns) / 1e9;
  pass.peak_rss_mib = PeakRssMiB();
  return pass;
}

// The reference output of every variant: the same input advised on 1 worker
// (outputs are bit-identical at every thread count). A 1-worker Advise keeps
// one thread busy, so kBudgetThreads variants run at once.
std::vector<OpOutput> References(const std::vector<InputVariant>& variants) {
  std::vector<OpOutput> refs(variants.size());
  RunOnBudgetThreads(variants.size(), [&](size_t v) {
    Tracer off(false);
    refs[v] = AdviseOp(variants[v], 1, off, 0, nullptr).output;
  });
  return refs;
}

// Pool speedup: one variant of each structural type advised alone on 1
// worker, against the median of that variant's ops on kAdvisorWorkers.
double PoolSpeedup(const std::vector<InputVariant>& variants,
                   const std::vector<uint32_t>& ops,
                   const std::vector<double>& latencies_ms) {
  std::vector<double> speedups;
  Tracer off(false);
  for (size_t v = 0; v < variants.size(); v += kVariantsPerType) {
    std::vector<double> lat;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i] == v) lat.push_back(latencies_ms[i]);
    }
    if (lat.empty()) continue;
    const double one_worker_ms = AdviseOp(variants[v], 1, off, 0, nullptr).ms;
    speedups.push_back(one_worker_ms / Median(lat));
  }
  return Mean(speedups);
}

}  // namespace

Outcome RunAdviseCold(const RunArgs& args) {
  Outcome out;
  if (!ValidateThreadBudget(kAdvisorWorkers + 1).ok()) {
    out.correct = false;
    return out;
  }
  // Setup: generate the inputs and run one warm-up op, kSetupRepeats times.
  std::vector<double> setup_s;
  std::vector<InputVariant> variants;
  Tracer off(false);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    variants = ApbVariants(args.seed, kVariantsPerType);
    OpRun warm = AdviseOp(variants[0], kAdvisorWorkers, off, 0, nullptr);
    out.correct &= warm.output.ok;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::vector<uint32_t> ops = AdviseColdOps(
      args.seed, LatencyOpCount(args.seconds, kNominalOpsPerSecond),
      static_cast<uint32_t>(variants.size()));
  std::vector<size_t> ref_of(ops.begin(), ops.end());

  Pass untraced = RunPass(variants, ops, off, nullptr);
  const std::vector<OpOutput> refs = References(variants);
  Tally tally = CheckOutputs(untraced.outputs, ref_of, refs);

  if (!args.trace) {
    out.metrics = EndToEndMetrics(untraced.latencies_ms,
                                  Rate(ops.size(), untraced.wall_s),
                                  Median(setup_s), untraced.peak_rss_mib);
  } else {
    Tracer tracer(true);
    LayerFacts facts;
    Pass traced = RunPass(variants, ops, tracer, &facts);
    const Tally t2 = CheckOutputs(traced.outputs, ref_of, refs);
    tally.attempted += t2.attempted;
    tally.failed += t2.failed;
    out.correct &= traced.replays_ok;
    facts.op_delta = facts.advise_delta;
    facts.ops = ops.size();
    facts.pool_speedup = PoolSpeedup(variants, ops, untraced.latencies_ms);
    facts.untraced_op_ms = Mean(untraced.latencies_ms);
    facts.traced_op_ms = Mean(traced.latencies_ms);
    out.correct &= ControlService(facts).ok();
    out.correct &= ControlSweep(tracer, args.seed, facts).ok();
    out.correct &= tracer.WriteJsonl(SpansPath(args)).ok();
    out.metrics = PerLayerMetrics(tracer, facts);
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct &= tally.failed == 0;
  return out;
}

}  // namespace perfbench
