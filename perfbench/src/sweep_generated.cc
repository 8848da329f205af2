// sweep_generated: design-space studies. One op is one generated scenario;
// ops are timed as part of a fixed list of RunSweep calls of 16 scenarios
// each. Every scenario pays for a session build and a scheme selection, hits
// few fragments per query, and is scored again under both backends: the
// other end of the hit-count range from advise_cold.

#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "api/session.h"
#include "replay.h"
#include "report/renderer.h"
#include "scenario/generator.h"
#include "scenario/scenario_text.h"
#include "scenario/sweep.h"
#include "service/client.h"
#include "workloads.h"

namespace perfbench {

namespace wl = warlock;

namespace {

constexpr uint32_t kScenariosPerCall = 16;
// RunSweep calls per second on the reference machine.
constexpr double kNominalCallsPerSecond = 4.0;
// advisor_threads 1 (the CLI's default split) runs each scenario's loops
// inline on one thread, and RunSweep's caller work-assists, so the outer
// pool may use the whole budget.
constexpr unsigned kOuterThreads = kBudgetThreads;
constexpr uint64_t kWarmUpSpecSeed = 2001;

std::string OutcomeFingerprint(const wl::scenario::ScenarioOutcome& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%u|%llu|%u|%llu|%u|%u|%d|%d|%d|%llu|%llu|%llu|%llu|%llu|"
                "%llu|%llu|%a|%a|%a|%a|",
                o.index, static_cast<unsigned long long>(o.seed), o.dimensions,
                static_cast<unsigned long long>(o.fact_rows), o.query_classes,
                o.disks, o.skewed, o.ok, o.cancelled,
                static_cast<unsigned long long>(o.enumerated),
                static_cast<unsigned long long>(o.excluded),
                static_cast<unsigned long long>(o.screened),
                static_cast<unsigned long long>(o.fully_evaluated),
                static_cast<unsigned long long>(o.winner_fragments),
                static_cast<unsigned long long>(o.fact_granule),
                static_cast<unsigned long long>(o.bitmap_granule),
                o.io_work_ms, o.response_ms, o.warlock_response_ms,
                o.graph_response_ms);
  return buf + o.error + "|" + o.winner + "|" + o.allocation + "|" +
         o.allocator_winner;
}

// One output per scenario; a scenario that did not complete fails.
std::vector<OpOutput> Outputs(const wl::Result<wl::scenario::SweepResult>& r) {
  std::vector<OpOutput> out(kScenariosPerCall);
  if (!r.ok()) return out;
  for (size_t i = 0; i < out.size() && i < r->outcomes.size(); ++i) {
    out[i].ok = r->outcomes[i].ok;
    out[i].text = OutcomeFingerprint(r->outcomes[i]);
  }
  return out;
}

wl::scenario::SweepOptions Options(unsigned threads,
                                   wl::obs::MetricRegistry* metrics) {
  wl::scenario::SweepOptions options;
  options.threads = threads;
  options.advisor_threads = 1;
  options.metrics = metrics;
  return options;
}

struct Pass {
  std::vector<double> call_ms;
  std::vector<OpOutput> outputs;  // kScenariosPerCall per call
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  bool replays_ok = true;
};

// Replays one scenario of a call on the direct path: generation, a 1-worker
// session and its Advise, the cold pipeline of its winner, and the service
// bodies of the sweep request.
bool ReplayScenario(const wl::scenario::ScenarioSpec& spec, uint32_t index,
                    const std::string& spec_text, const std::string& payload,
                    Tracer& tracer, uint64_t op, LayerFacts& facts) {
  {
    Tracer::Scope span(tracer, "scenario.generate", op);
    if (!wl::scenario::GenerateScenario(spec, index).ok()) return false;
  }
  wl::SessionOptions options;
  options.threads = 1;
  auto session = [&] {
    Tracer::Scope span(tracer, "api.session_build", op);
    return wl::Session::FromScenario(spec, index, options);
  }();
  if (!session.ok()) return false;
  const RegistryTotals before = ReadRegistry(session->metrics());
  auto advice = TracedAdvise(tracer, op, *session, {}, facts);
  if (!advice.ok() || advice->best() == nullptr) return false;
  Accumulate(facts.op_delta, Delta(ReadRegistry(session->metrics()), before));
  ++facts.ops;
  {
    Tracer::Scope span(tracer, "report.ranking_json", op);
    if (!wl::report::Renderer::Create(wl::report::OutputFormat::kJson)
             ->Ranking(advice->result, session->schema())
             .ok()) {
      return false;
    }
  }
  ReplayTarget target{&session->schema(), &session->mix(), &session->config(),
                      advice->best(), {}};
  bool ok = ReplayPipeline(tracer, op, target);
  wl::service::SweepCall call{spec_text, kOuterThreads, 1u, {}};
  ok &= ReplayServiceBodies(tracer, op, wl::service::SweepRequestJson(call),
                            "sweep", payload, spec_text, "", "");
  return ok;
}

Pass RunPass(const std::vector<uint64_t>& calls,
             const std::map<uint64_t, wl::scenario::ScenarioSpec>& specs,
             Tracer& tracer, LayerFacts* facts,
             wl::obs::MetricRegistry* metrics) {
  Pass pass;
  const size_t stride = ReplayStride(calls.size() * kScenariosPerCall);
  const auto renderer =
      wl::report::Renderer::Create(wl::report::OutputFormat::kJson);
  ResetPeakRss();
  double op_ns = 0.0;
  for (size_t i = 0; i < calls.size(); ++i) {
    const wl::scenario::ScenarioSpec& spec = specs.at(calls[i]);
    const int64_t t0 = NowNs();
    auto result = [&] {
      Tracer::Scope span(tracer, "scenario.run_sweep", i);
      return wl::scenario::RunSweep(spec, Options(kOuterThreads, metrics));
    }();
    const int64_t t1 = NowNs();
    op_ns += static_cast<double>(t1 - t0);
    pass.call_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    for (OpOutput& o : Outputs(result)) pass.outputs.push_back(std::move(o));
    if (facts != nullptr && i % stride == 0 && result.ok()) {
      std::string payload;
      {
        Tracer::Scope span(tracer, "report.sweep_json", i);
        auto json = renderer->Sweep(*result);
        pass.replays_ok &= json.ok();
        if (json.ok()) payload = std::move(json).value();
      }
      pass.replays_ok &= ReplayScenario(
          spec, static_cast<uint32_t>(i % kScenariosPerCall),
          SweepSpecText(calls[i], kScenariosPerCall), payload, tracer, i,
          *facts);
    }
  }
  pass.wall_s = op_ns / 1e9;
  pass.peak_rss_mib = PeakRssMiB();
  return pass;
}

// Reference outputs of every distinct spec: the same sweep on 1 worker
// (artifacts are bit-identical at every thread count). The first
// `timed_alone` specs run one at a time, so their times are clean 1-worker
// times; the rest run kBudgetThreads at once, each keeping one thread busy.
std::map<uint64_t, std::vector<OpOutput>> References(
    const std::map<uint64_t, wl::scenario::ScenarioSpec>& specs,
    size_t timed_alone, std::map<uint64_t, double>* ms) {
  std::vector<uint64_t> seeds;
  for (const auto& [seed, spec] : specs) seeds.push_back(seed);
  std::vector<std::vector<OpOutput>> outs(seeds.size());
  std::vector<double> times(seeds.size(), 0.0);
  const auto run = [&](size_t first, size_t end, size_t step) {
    for (size_t k = first; k < end; k += step) {
      const int64_t t0 = NowNs();
      outs[k] = Outputs(
          wl::scenario::RunSweep(specs.at(seeds[k]), Options(1, nullptr)));
      times[k] = static_cast<double>(NowNs() - t0) / 1e6;
    }
  };
  const size_t alone = std::min(timed_alone, seeds.size());
  run(0, alone, 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kBudgetThreads; ++t) {
    threads.emplace_back(run, alone + t, seeds.size(), kBudgetThreads);
  }
  for (std::thread& t : threads) t.join();
  std::map<uint64_t, std::vector<OpOutput>> refs;
  for (size_t k = 0; k < seeds.size(); ++k) {
    refs[seeds[k]] = std::move(outs[k]);
    if (k < alone) (*ms)[seeds[k]] = times[k];
  }
  return refs;
}

Tally Check(const std::vector<uint64_t>& calls, const Pass& pass,
            const std::map<uint64_t, std::vector<OpOutput>>& refs) {
  std::vector<OpOutput> ref_list;
  std::map<uint64_t, size_t> base;
  for (const auto& [seed, outs] : refs) {
    base[seed] = ref_list.size();
    ref_list.insert(ref_list.end(), outs.begin(), outs.end());
  }
  std::vector<size_t> ref_of;
  for (uint64_t seed : calls) {
    for (uint32_t s = 0; s < kScenariosPerCall; ++s) {
      ref_of.push_back(base.at(seed) + s);
    }
  }
  return CheckOutputs(pass.outputs, ref_of, ref_list);
}

}  // namespace

Outcome RunSweepGenerated(const RunArgs& args) {
  Outcome out;
  if (!ValidateThreadBudget(kOuterThreads).ok()) {
    out.correct = false;
    return out;
  }
  // Setup, kSetupRepeats times: parse a spec and run one warm-up call. The
  // warm-up spec is the same for every seed, so setup time does not depend
  // on which scenarios a seed draws.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    auto spec = wl::scenario::SpecFromText(
        SweepSpecText(kWarmUpSpecSeed, kScenariosPerCall));
    out.correct &= spec.ok() &&
                   wl::scenario::RunSweep(*spec, Options(kOuterThreads, nullptr))
                       .ok();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  // Fewer calls than a latency workload: a call is a whole 16-scenario
  // sweep (the size of examples/data/demo.sweep), and a run must stay short.
  const std::vector<uint64_t> calls = SweepCallSeeds(
      args.seed, static_cast<size_t>(
                     std::ceil(args.seconds * kNominalCallsPerSecond)));
  std::map<uint64_t, wl::scenario::ScenarioSpec> specs;
  for (uint64_t seed : calls) {
    if (specs.count(seed) != 0) continue;
    auto spec = wl::scenario::SpecFromText(
        SweepSpecText(seed, kScenariosPerCall));
    if (!spec.ok()) {
      out.correct = false;
      return out;
    }
    specs.emplace(seed, std::move(spec).value());
  }

  Tracer off(false);
  Pass untraced = RunPass(calls, specs, off, nullptr, nullptr);
  std::map<uint64_t, double> ref_ms;
  const auto refs = References(specs, args.trace ? 6 : 0, &ref_ms);
  Tally tally = Check(calls, untraced, refs);

  if (!args.trace) {
    out.metrics = EndToEndMetrics(
        untraced.call_ms, Rate(untraced.outputs.size(), untraced.wall_s),
        Median(setup_s), untraced.peak_rss_mib);
  } else {
    Tracer tracer(true);
    LayerFacts facts;
    wl::obs::MetricRegistry registry;
    Pass traced = RunPass(calls, specs, tracer, &facts, &registry);
    const Tally t2 = Check(calls, traced, refs);
    tally.attempted += t2.attempted;
    tally.failed += t2.failed;
    out.correct &= traced.replays_ok;
    const RegistryTotals totals = ReadRegistry(registry);
    facts.scenario_us_sum = totals.Get("sweep.scenario_us.sum");
    facts.scenarios =
        static_cast<uint64_t>(totals.Get("sweep.scenario_us.count"));
    facts.sweep_wall_ns = traced.wall_s * 1e9;
    facts.outer_threads = kOuterThreads;
    // 1-worker reference time / workload time over the calls of the specs
    // whose references ran alone.
    double t1_sum = 0.0;
    double tn_sum = 0.0;
    for (size_t i = 0; i < calls.size(); ++i) {
      const auto it = ref_ms.find(calls[i]);
      if (it == ref_ms.end()) continue;
      t1_sum += it->second;
      tn_sum += untraced.call_ms[i];
    }
    facts.pool_speedup = tn_sum > 0.0 ? t1_sum / tn_sum : 0.0;
    facts.untraced_op_ms = Mean(untraced.call_ms);
    facts.traced_op_ms = Mean(traced.call_ms);
    out.correct &= ControlService(facts).ok();
    out.correct &= tracer.WriteJsonl(SpansPath(args)).ok();
    out.metrics = PerLayerMetrics(tracer, facts);
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct &= tally.failed == 0;
  return out;
}

}  // namespace perfbench
