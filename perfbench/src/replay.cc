#include "replay.h"

#include <memory>
#include <optional>

#include "alloc/allocator.h"
#include "alloc/coaccess.h"
#include "bitmap/scheme.h"
#include "common/rng.h"
#include "cost/mix_cost.h"
#include "cost/prefetch.h"
#include "cost/query_cost.h"
#include "fragment/candidates.h"
#include "fragment/fragment_sizes.h"
#include "fragment/query_hits.h"
#include "report/renderer.h"
#include "scenario/generator.h"
#include "scenario/scenario_text.h"
#include "scenario/sweep.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_cache.h"
#include "workload/query.h"
#include "workloads.h"

namespace perfbench {

namespace wl = warlock;

namespace {

// Mirrors the advisor's allocation-policy resolution.
std::optional<wl::alloc::AllocationScheme> ForcedScheme(
    const wl::core::ToolConfig& config,
    const wl::core::Advisor::Overrides& overrides) {
  if (overrides.allocation_scheme) return overrides.allocation_scheme;
  switch (config.allocation) {
    case wl::core::AllocationPolicy::kRoundRobin:
      return wl::alloc::AllocationScheme::kRoundRobin;
    case wl::core::AllocationPolicy::kGreedy:
      return wl::alloc::AllocationScheme::kGreedy;
    case wl::core::AllocationPolicy::kAuto:
      break;
  }
  return std::nullopt;
}

double PerCall(const Tracer::Aggregate& a, double scale) {
  return a.calls == 0 ? 0.0 : a.total_ns / static_cast<double>(a.calls) / scale;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Hits over lookups; a memo lookup that finds a stale signature counts as
// an invalidation rather than a miss.
double HitRatio(const RegistryTotals& d, const std::string& prefix) {
  const double hits = d.Get(prefix + ".hits");
  return Ratio(hits, hits + d.Get(prefix + ".misses") +
                         d.Get(prefix + ".invalidations"));
}

}  // namespace

bool ReplayPipeline(Tracer& tracer, uint64_t op, const ReplayTarget& t) {
  const wl::schema::StarSchema& schema = *t.schema;
  const wl::core::ToolConfig& config = *t.config;
  const wl::fragment::Fragmentation& frag = t.candidate->fragmentation;

  std::optional<wl::bitmap::BitmapScheme> scheme;
  {
    Tracer::Scope span(tracer, "bitmap.select", op);
    scheme.emplace(wl::bitmap::BitmapScheme::Select(schema,
                                                    config.bitmap_options));
  }
  for (const auto& [dim, level] : t.overrides.excluded_bitmaps) {
    if (!scheme->Exclude(dim, level).ok()) return false;
  }

  wl::cost::CostParameters params = config.cost;
  params.force_expected = false;
  if (t.overrides.num_disks) params.disks.num_disks = *t.overrides.num_disks;
  {
    Tracer::Scope span(tracer, "fragment.enumerate_candidates", op);
    auto candidates = wl::fragment::EnumerateCandidates(
        schema, config.fact_index, params.disks.page_size_bytes,
        config.thresholds);
    if (!candidates.ok()) return false;
    span.set_work(candidates->size());
  }

  std::optional<wl::fragment::FragmentSizes> sizes;
  {
    Tracer::Scope span(tracer, "fragment.sizes", op);
    auto computed = wl::fragment::FragmentSizes::Compute(
        frag, schema, config.fact_index, params.disks.page_size_bytes,
        config.thresholds.max_fragments);
    if (!computed.ok()) return false;
    span.set_work(computed->num_fragments());
    sizes.emplace(std::move(computed).value());
  }

  std::optional<wl::alloc::CoAccessModel> coaccess;
  {
    Tracer::Scope span(tracer, "alloc.coaccess", op);
    coaccess.emplace(wl::alloc::CoAccessModel::Build(frag, schema, *t.mix));
  }
  wl::alloc::AllocationContext actx;
  actx.sizes = &*sizes;
  actx.scheme = &*scheme;
  actx.num_disks = params.disks.num_disks;
  actx.skew_threshold = config.skew_threshold;
  actx.coaccess = &*coaccess;
  actx.forced_scheme = ForcedScheme(config, t.overrides);
  const std::string op_backend = t.overrides.allocator.value_or(config.allocator);
  std::optional<wl::alloc::DiskAllocation> allocation;
  for (const char* name : {wl::alloc::kWarlockAllocator,
                           wl::alloc::kGraphAllocator}) {
    auto backend = wl::alloc::GetAllocator(name);
    if (!backend.ok()) return false;
    Tracer::Scope span(tracer, std::string("alloc.") + name, op);
    auto placed = (*backend)->Allocate(actx);
    if (!placed.ok()) return false;
    span.set_work(sizes->num_fragments());
    if (op_backend == name) allocation.emplace(std::move(placed).value());
  }
  if (!allocation) return false;

  {
    Tracer::Scope span(tracer, "cost.prefetch_search", op);
    wl::cost::PrefetchOptions options;
    options.max_granule_pages = config.prefetch_max_granule;
    options.search_samples = config.prefetch_samples;
    const wl::cost::PrefetchChoice choice = wl::cost::OptimizePrefetch(
        schema, config.fact_index, frag, *sizes, *scheme, *allocation, *t.mix,
        params, options, nullptr);
    span.set_work(choice.evaluations);
  }

  // Hit enumeration for exactly the concrete queries CostMix samples: one
  // stream per class forked from the cost seed, samples_per_class draws.
  params.fact_granule = t.candidate->fact_granule;
  params.bitmap_granule = t.candidate->bitmap_granule;
  wl::Rng root(params.seed);
  const uint32_t samples = std::max<uint32_t>(1, params.samples_per_class);
  for (size_t i = 0; i < t.mix->size(); ++i) {
    wl::Rng class_rng = root.Fork(i + 1);
    for (uint32_t s = 0; s < samples; ++s) {
      const wl::workload::ConcreteQuery cq = wl::workload::Instantiate(
          t.mix->query_class(i), schema, class_rng, params.value_distribution);
      Tracer::Scope span(tracer, "fragment.enumerate_hits", op);
      auto hits = wl::fragment::EnumerateHits(frag, cq, schema,
                                              config.fact_index, *sizes,
                                              params.max_enumerated_hits);
      if (hits.ok()) span.set_work(hits->size());
    }
  }

  {
    Tracer::Scope span(tracer, "cost.cost_mix", op);
    const wl::cost::QueryCostModel model(schema, config.fact_index, frag,
                                         *sizes, *scheme, *allocation, params);
    const wl::cost::MixCost mc = wl::cost::CostMix(model, *t.mix, params.seed);
    span.set_work(mc.per_class.size());
  }

  const auto renderer = wl::report::Renderer::Create(wl::report::OutputFormat::kJson);
  Tracer::Scope span(tracer, "report.query_stats_json", op);
  auto stats = renderer->QueryStats(*t.candidate, *t.mix, schema);
  if (!stats.ok()) return false;
  span.set_work(stats->size());
  return true;
}

bool ReplayServiceBodies(Tracer& tracer, uint64_t op,
                         const std::string& request_body,
                         std::string_view method, const std::string& payload,
                         std::string_view schema_text,
                         std::string_view workload_text,
                         std::string_view config_text) {
  bool ok = true;
  {
    Tracer::Scope span(tracer, "service.parse_request", op);
    ok &= wl::service::ParseRequest(request_body).ok();
    span.set_work(request_body.size());
  }
  {
    Tracer::Scope span(tracer, "service.cache_key", op);
    const std::string key =
        wl::service::SessionCache::KeyFor(schema_text, workload_text,
                                          config_text);
    ok &= !key.empty();
    span.set_work(schema_text.size() + workload_text.size() +
                  config_text.size());
  }
  std::string response;
  {
    Tracer::Scope span(tracer, "service.ok_response", op);
    response = wl::service::OkResponse(method, payload, true);
    span.set_work(response.size());
  }
  Tracer::Scope span(tracer, "service.parse_response", op);
  auto parsed = wl::service::ParseResponse(response);
  ok &= parsed.ok() && parsed->payload == payload;
  span.set_work(response.size());
  return ok;
}

wl::Result<wl::AdviseResponse> TracedAdvise(Tracer& tracer, uint64_t op,
                                            const wl::Session& session,
                                            const wl::AdviseRequest& request,
                                            LayerFacts& facts) {
  const RegistryTotals before = ReadRegistry(session.metrics());
  const int64_t t0 = NowNs();
  auto response = [&] {
    Tracer::Scope span(tracer, "core.advise", op);
    return session.Advise(request);
  }();
  facts.advise_wall_ns += static_cast<double>(NowNs() - t0);
  ++facts.advise_calls;
  Accumulate(facts.advise_delta,
             Delta(ReadRegistry(session.metrics()), before));
  return response;
}

Status ControlService(LayerFacts& facts) {
  wl::service::ServerOptions options;
  options.workers = 1;
  options.session_threads = 1;
  wl::service::Server server(options);
  WARLOCK_RETURN_IF_ERROR(server.Start());
  const RegistryTotals before = ReadRegistry(server.metrics());
  {
    WARLOCK_ASSIGN_OR_RETURN(wl::service::Client client,
                             wl::service::Client::Connect("127.0.0.1",
                                                          server.port()));
    for (int i = 0; i < 64; ++i) {
      const int64_t t0 = NowNs();
      WARLOCK_ASSIGN_OR_RETURN(wl::service::Response r, client.Health());
      facts.client_rtt_ns_sum += static_cast<double>(NowNs() - t0);
      ++facts.client_calls;
      if (!r.status.ok()) return r.status;
    }
  }
  const RegistryTotals d = Delta(ReadRegistry(server.metrics()), before);
  facts.server_us_sum += d.Get("server.latency_us.health.sum");
  facts.server_requests +=
      static_cast<uint64_t>(d.Get("server.latency_us.health.count"));
  server.Shutdown();
  return Status::OK();
}

Status ControlSweep(Tracer& tracer, uint64_t seed, LayerFacts& facts) {
  WARLOCK_ASSIGN_OR_RETURN(wl::scenario::ScenarioSpec spec,
                           wl::scenario::SpecFromText(SweepSpecText(seed, 4)));
  wl::obs::MetricRegistry registry;
  wl::scenario::SweepOptions options;
  options.threads = kBudgetThreads;
  options.advisor_threads = 1;
  options.metrics = &registry;
  const int64_t t0 = NowNs();
  auto result = [&] {
    Tracer::Scope span(tracer, "scenario.run_sweep", 0);
    return wl::scenario::RunSweep(spec, options);
  }();
  facts.sweep_wall_ns += static_cast<double>(NowNs() - t0);
  if (!result.ok()) return result.status();
  const RegistryTotals totals = ReadRegistry(registry);
  facts.scenario_us_sum += totals.Get("sweep.scenario_us.sum");
  facts.scenarios += static_cast<uint64_t>(totals.Get("sweep.scenario_us.count"));
  facts.outer_threads = kBudgetThreads;
  for (uint32_t i = 0; i < spec.scenarios; ++i) {
    Tracer::Scope span(tracer, "scenario.generate", 0);
    WARLOCK_RETURN_IF_ERROR(wl::scenario::GenerateScenario(spec, i).status());
  }
  const auto renderer = wl::report::Renderer::Create(wl::report::OutputFormat::kJson);
  Tracer::Scope span(tracer, "report.sweep_json", 0);
  return renderer->Sweep(*result).status();
}

std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const LayerFacts& f) {
  const Tracer::Aggregate hits = tracer.Total("fragment.enumerate_hits");
  const Tracer::Aggregate prefetch = tracer.Total("cost.prefetch_search");
  const RegistryTotals& a = f.advise_delta;
  const double advise_calls = static_cast<double>(f.advise_calls);
  const auto stage_ms = [&](const char* stage) {
    return Ratio(a.Get(std::string("advisor.") + stage + "_us.sum"),
                 advise_calls) / 1e3;
  };
  const double stage_sum_ns = (a.Get("advisor.enumerate_us.sum") +
                               a.Get("advisor.screen_us.sum") +
                               a.Get("advisor.full_eval_us.sum")) * 1e3;
  const double server_us =
      Ratio(f.server_us_sum, static_cast<double>(f.server_requests));
  const double rtt_us =
      Ratio(f.client_rtt_ns_sum, static_cast<double>(f.client_calls)) / 1e3;
  const auto us = [&](const char* name) {
    return PerCall(tracer.Total(name), 1e3);
  };
  const auto ms = [&](const char* name) {
    return PerCall(tracer.Total(name), 1e6);
  };
  return {
      {"fragment.hits_per_query",
       Ratio(static_cast<double>(hits.work), static_cast<double>(hits.calls)),
       "count"},
      {"fragment.hit_enum_ns_per_hit",
       Ratio(hits.total_ns, static_cast<double>(hits.work)), "ns"},
      {"fragment.sizes_us", us("fragment.sizes"), "us"},
      {"bitmap.select_us", us("bitmap.select"), "us"},
      {"cost.cost_mix_ms", ms("cost.cost_mix"), "ms"},
      {"cost.prefetch_search_ms", ms("cost.prefetch_search"), "ms"},
      {"cost.prefetch_points",
       Ratio(static_cast<double>(prefetch.work),
             static_cast<double>(prefetch.calls)),
       "count"},
      {"alloc.coaccess_us", us("alloc.coaccess"), "us"},
      {"alloc.warlock_us", us("alloc.warlock"), "us"},
      {"alloc.graph_us", us("alloc.graph"), "us"},
      {"core.screen_ms", stage_ms("screen"), "ms"},
      {"core.full_eval_ms", stage_ms("full_eval"), "ms"},
      {"core.prefetch_ms", stage_ms("prefetch"), "ms"},
      {"core.allocate_ms", stage_ms("allocate"), "ms"},
      {"core.stage_coverage", Ratio(stage_sum_ns, f.advise_wall_ns), "ratio"},
      {"core.memo_result_hit_ratio", HitRatio(f.op_delta, "memo.result"),
       "ratio"},
      {"core.memo_prefetch_hit_ratio", HitRatio(f.op_delta, "memo.prefetch"),
       "ratio"},
      {"core.memo_allocation_hit_ratio",
       HitRatio(f.op_delta, "memo.allocation"), "ratio"},
      {"core.sizes_cache_hit_ratio", HitRatio(f.op_delta, "sizes_cache"),
       "ratio"},
      {"common.pool_tasks_per_op",
       Ratio(f.op_delta.Get("pool.tasks_run"), static_cast<double>(f.ops)),
       "count"},
      {"common.pool_speedup", f.pool_speedup, "ratio"},
      {"api.session_build_ms", ms("api.session_build"), "ms"},
      {"report.query_stats_json_us", us("report.query_stats_json"), "us"},
      {"report.ranking_json_us", us("report.ranking_json"), "us"},
      {"report.sweep_json_us", us("report.sweep_json"), "us"},
      {"service.parse_request_us", us("service.parse_request"), "us"},
      {"service.cache_key_us", us("service.cache_key"), "us"},
      {"service.ok_response_us", us("service.ok_response"), "us"},
      {"service.parse_response_us", us("service.parse_response"), "us"},
      {"service.server_us", server_us, "us"},
      {"service.transport_us", rtt_us - server_us, "us"},
      {"service.session_cache_hit_ratio",
       Ratio(static_cast<double>(f.session_cache_hits),
             static_cast<double>(f.session_cache_lookups)),
       "ratio"},
      {"service.advise_payload_hit_ratio",
       Ratio(static_cast<double>(f.advise_payload_hits),
             static_cast<double>(f.advise_requests)),
       "ratio"},
      {"scenario.generate_us", us("scenario.generate"), "us"},
      {"scenario.scenario_ms",
       Ratio(f.scenario_us_sum, static_cast<double>(f.scenarios)) / 1e3, "ms"},
      {"scenario.straggler_ratio",
       Ratio(f.sweep_wall_ns,
             f.scenario_us_sum * 1e3 / static_cast<double>(f.outer_threads)),
       "ratio"},
      {"obs.trace_overhead", Ratio(f.traced_op_ms, f.untraced_op_ms), "ratio"},
  };
}

}  // namespace perfbench
