// whatif_tuning: the paper's interactive loop (section 3.3). Setup builds one
// session per input and advises once; each op is one WhatIf on a top-k
// fragmentation with one knob changed, or a return to its previous knob
// set. The ops write the delta re-costing memo as well as read it, and run
// both allocation backends.

#include <cstdio>
#include <map>

#include "api/session.h"
#include "common/content_hash.h"
#include "replay.h"
#include "report/renderer.h"
#include "service/client.h"
#include "workloads.h"

namespace perfbench {

namespace wl = warlock;

namespace {

// Thousands of ops are kept for the check, so each keeps the hash of its
// fingerprint rather than the fingerprint itself.
std::string FingerprintHash(const wl::core::EvaluatedCandidate& c) {
  return std::to_string(wl::common::Fnv1a64(Fingerprint(c)));
}

// What-if calls per second on the reference machine (a mix of memo-assisted
// fixed-granule ops and ops that re-run the prefetch search).
constexpr double kNominalOpsPerSecond = 850.0;
constexpr uint32_t kRanks = 3;
constexpr uint32_t kVariantsPerType = 4;

struct Track {
  uint32_t variant = 0;
  wl::fragment::Fragmentation fragmentation;
};

// One session per variant plus its Advise response.
struct State {
  std::vector<wl::Session> sessions;
  std::vector<wl::AdviseResponse> advice;
  std::vector<Track> tracks;
};

Status Setup(const std::vector<InputVariant>& variants, Tracer& tracer,
             LayerFacts* facts, State& state) {
  state = State{};
  for (size_t v = 0; v < variants.size(); ++v) {
    wl::SessionOptions options;
    options.threads = kAdvisorWorkers;
    auto session = [&] {
      Tracer::Scope span(tracer, "api.session_build", 0);
      return wl::Session::FromText(variants[v].schema_text,
                                   variants[v].workload_text,
                                   variants[v].config_text, options);
    }();
    if (!session.ok()) return session.status();
    auto advice = facts != nullptr
                      ? TracedAdvise(tracer, 0, *session, {}, *facts)
                      : session->Advise();
    if (!advice.ok()) return advice.status();
    if (advice->result.ranking.size() < kRanks) {
      return Status::FailedPrecondition(variants[v].name +
                                        ": ranking shorter than 3");
    }
    state.sessions.push_back(std::move(session).value());
    state.advice.push_back(std::move(advice).value());
  }
  for (uint32_t v = 0; v < variants.size(); ++v) {
    for (uint32_t r = 0; r < kRanks; ++r) {
      const auto& result = state.advice[v].result;
      state.tracks.push_back(
          {v, result.candidates[result.ranking[r]].fragmentation});
    }
  }
  return Status::OK();
}

struct Pass {
  std::vector<double> latencies_ms;
  std::vector<OpOutput> outputs;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  bool replays_ok = true;
};

Pass RunPass(const std::vector<InputVariant>& variants, const State& state,
             const std::vector<WhatIfOp>& ops, Tracer& tracer,
             LayerFacts* facts) {
  Pass pass;
  const size_t stride = ReplayStride(ops.size());
  const auto renderer =
      wl::report::Renderer::Create(wl::report::OutputFormat::kJson);
  ResetPeakRss();
  double op_ns = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Track& track = state.tracks[ops[i].track];
    const wl::Session& session = state.sessions[track.variant];
    wl::WhatIfRequest request;
    request.fragmentation = track.fragmentation;
    request.overrides = ops[i].knobs.ToOverrides();
    RegistryTotals before;
    if (facts != nullptr) before = ReadRegistry(session.metrics());
    const int64_t t0 = NowNs();
    auto response = [&] {
      Tracer::Scope span(tracer, "core.whatif", i);
      return session.WhatIf(request);
    }();
    const int64_t t1 = NowNs();
    op_ns += static_cast<double>(t1 - t0);
    pass.latencies_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    OpOutput output;
    output.ok = response.ok();
    if (response.ok()) output.text = FingerprintHash(response->candidate);
    if (facts != nullptr) {
      Accumulate(facts->op_delta,
                 Delta(ReadRegistry(session.metrics()), before));
      ++facts->ops;
    }
    if (facts != nullptr && i % stride == 0 && response.ok()) {
      const InputVariant& v = variants[track.variant];
      ReplayTarget target{&session.schema(), &session.mix(),
                          &session.config(), &response->candidate,
                          request.overrides};
      pass.replays_ok &= ReplayPipeline(tracer, i, target);
      {
        Tracer::Scope span(tracer, "report.ranking_json", i);
        pass.replays_ok &=
            renderer->Ranking(state.advice[track.variant].result,
                              session.schema())
                .ok();
      }
      auto payload = renderer->QueryStats(response->candidate, session.mix(),
                                          session.schema());
      wl::service::WhatIfCall call;
      call.schema_text = v.schema_text;
      call.workload_text = v.workload_text;
      call.config_text = v.config_text;
      call.fragmentation =
          FragmentationNames(track.fragmentation, session.schema());
      call.num_disks = ops[i].knobs.disks;
      if (ops[i].knobs.granules) {
        call.fact_granule = ops[i].knobs.granules->first;
        call.bitmap_granule = ops[i].knobs.granules->second;
      }
      call.allocator = ops[i].knobs.allocator;
      pass.replays_ok &=
          payload.ok() &&
          ReplayServiceBodies(tracer, i, wl::service::WhatIfRequestJson(call),
                              "whatif", *payload, v.schema_text,
                              v.workload_text, v.config_text);
    }
    pass.outputs.push_back(std::move(output));
  }
  pass.wall_s = op_ns / 1e9;
  pass.peak_rss_mib = PeakRssMiB();
  return pass;
}

// Cold reference of one (track, knob set): a fresh session's evaluation.
OpOutput ColdEvaluate(const InputVariant& v, const Track& track,
                      const Knobs& knobs, unsigned threads, double* ms) {
  OpOutput out;
  wl::SessionOptions options;
  options.threads = threads;
  auto session = wl::Session::FromText(v.schema_text, v.workload_text,
                                       v.config_text, options);
  if (!session.ok()) return out;
  wl::WhatIfRequest request;
  request.fragmentation = track.fragmentation;
  request.overrides = knobs.ToOverrides();
  const int64_t t0 = NowNs();
  auto response = session->WhatIf(request);
  if (ms != nullptr) *ms = static_cast<double>(NowNs() - t0) / 1e6;
  out.ok = response.ok();
  if (response.ok()) out.text = FingerprintHash(response->candidate);
  return out;
}

// Latency by op kind on stderr; a return is named after the change it undoes.
void PrintKindSummary(const std::vector<WhatIfOp>& ops,
                      const std::vector<double>& latencies_ms) {
  std::map<std::string, std::vector<double>> by_kind;
  std::map<uint32_t, KnobKind> last_change;
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string kind = KnobKindName(ops[i].kind);
    if (ops[i].kind == KnobKind::kReturn) {
      kind += std::string("/") + KnobKindName(last_change[ops[i].track]);
    } else {
      last_change[ops[i].track] = ops[i].kind;
    }
    by_kind[kind].push_back(latencies_ms[i]);
  }
  for (const auto& [kind, lat] : by_kind) {
    std::fprintf(stderr,
                 "whatif_tuning: %-16s %5.1f%% p10=%.3f p50=%.3f p90=%.3f ms\n",
                 kind.c_str(), 100.0 * lat.size() / ops.size(),
                 Percentile(lat, 10), Percentile(lat, 50), Percentile(lat, 90));
  }
}

}  // namespace

Outcome RunWhatIfTuning(const RunArgs& args) {
  Outcome out;
  if (!ValidateThreadBudget(kAdvisorWorkers + 1).ok()) {
    out.correct = false;
    return out;
  }
  Tracer off(false);
  std::vector<double> setup_s;
  std::vector<InputVariant> variants;
  State state;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    variants = ApbVariants(args.seed, kVariantsPerType);
    out.correct &= Setup(variants, off, nullptr, state).ok();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (!out.correct) return out;
  std::vector<uint32_t> base_disks;
  for (const InputVariant& v : variants) base_disks.push_back(v.disks);
  const std::vector<WhatIfOp> ops = WhatIfOps(
      args.seed, LatencyOpCount(args.seconds, kNominalOpsPerSecond),
      base_disks, kRanks);

  Pass untraced = RunPass(variants, state, ops, off, nullptr);
  PrintKindSummary(ops, untraced.latencies_ms);

  // References: one cold evaluation per distinct (track, knob set).
  std::map<std::string, size_t> ref_index;
  std::vector<size_t> ref_of;
  std::vector<std::pair<uint32_t, const Knobs*>> distinct;
  for (const WhatIfOp& op : ops) {
    const std::string key = std::to_string(op.track) + "|" + op.knobs.Key();
    auto [it, inserted] = ref_index.emplace(key, distinct.size());
    if (inserted) distinct.emplace_back(op.track, &op.knobs);
    ref_of.push_back(it->second);
  }
  // A 1-worker session keeps one thread busy, so kBudgetThreads run at once.
  std::vector<OpOutput> refs(distinct.size());
  RunOnBudgetThreads(distinct.size(), [&](size_t d) {
    const auto& [track, knobs] = distinct[d];
    refs[d] = ColdEvaluate(variants[state.tracks[track].variant],
                           state.tracks[track], *knobs, 1, nullptr);
  });
  Tally tally = CheckOutputs(untraced.outputs, ref_of, refs);

  if (!args.trace) {
    out.metrics = EndToEndMetrics(untraced.latencies_ms,
                                  Rate(ops.size(), untraced.wall_s),
                                  Median(setup_s), untraced.peak_rss_mib);
  } else {
    Tracer tracer(true);
    LayerFacts facts;
    out.correct &= Setup(variants, tracer, &facts, state).ok();
    Pass traced = RunPass(variants, state, ops, tracer, &facts);
    const Tally t2 = CheckOutputs(traced.outputs, ref_of, refs);
    tally.attempted += t2.attempted;
    tally.failed += t2.failed;
    out.correct &= traced.replays_ok;
    // Pool speedup: cold evaluations of a sample of distinct knob sets on a
    // 1-worker session against the same on the workload's worker count.
    double t1_sum = 0.0;
    double tn_sum = 0.0;
    for (size_t d = 0; d < distinct.size() && d < 24; ++d) {
      const auto& [track, knobs] = distinct[d];
      const InputVariant& v = variants[state.tracks[track].variant];
      double t1 = 0.0;
      double tn = 0.0;
      ColdEvaluate(v, state.tracks[track], *knobs, 1, &t1);
      ColdEvaluate(v, state.tracks[track], *knobs, kAdvisorWorkers, &tn);
      t1_sum += t1;
      tn_sum += tn;
    }
    facts.pool_speedup = tn_sum > 0.0 ? t1_sum / tn_sum : 0.0;
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
