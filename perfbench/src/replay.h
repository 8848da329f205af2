#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Outside-in layer tracing. After a traced op (outside its timed window) the
// harness replays, on the op's own inputs, the public layer calls its
// pipeline makes, timing each one and counting its work. Per-layer metrics
// are computed from those spans plus before/after deltas of the program's
// own registries.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.h"
#include "bench.h"
#include "core/advisor.h"
#include "core/tool_config.h"
#include "schema/star_schema.h"
#include "workload/query_mix.h"

namespace perfbench {

// Everything one candidate evaluation reads.
struct ReplayTarget {
  const warlock::schema::StarSchema* schema = nullptr;
  const warlock::workload::QueryMix* mix = nullptr;
  const warlock::core::ToolConfig* config = nullptr;
  // The op's evaluated candidate: its fragmentation and chosen granules.
  const warlock::core::EvaluatedCandidate* candidate = nullptr;
  warlock::core::Advisor::Overrides overrides;
};

// Replays bitmap selection, candidate enumeration, fragment sizing, the
// co-access model, both allocation backends, the serial prefetch search,
// hit enumeration for every sampled query, CostMix at the candidate's
// granules, and the query-stats JSON render. Returns false when a layer
// call failed.
bool ReplayPipeline(Tracer& tracer, uint64_t op, const ReplayTarget& target);

// Replays the service layer on one request/response pair: ParseRequest on
// the body, SessionCache::KeyFor on the key texts, OkResponse on the payload
// and ParseResponse on the framed answer.
bool ReplayServiceBodies(Tracer& tracer, uint64_t op,
                         const std::string& request_body,
                         std::string_view method, const std::string& payload,
                         std::string_view schema_text,
                         std::string_view workload_text,
                         std::string_view config_text);

// Registry-derived facts behind the per-layer metrics.
struct LayerFacts {
  // Cold Advise calls on this workload's inputs: summed registry deltas and
  // the harness-measured wall time of the same calls.
  RegistryTotals advise_delta;
  uint64_t advise_calls = 0;
  double advise_wall_ns = 0.0;

  // The workload's own ops: summed session registry deltas.
  RegistryTotals op_delta;
  uint64_t ops = 0;

  // 1-worker time / workload-worker time for a sample of ops.
  double pool_speedup = 0.0;

  // warlockd: request latency sums from Server::metrics(), client round
  // trips, and cache counters.
  double server_us_sum = 0.0;
  uint64_t server_requests = 0;
  double client_rtt_ns_sum = 0.0;
  uint64_t client_calls = 0;
  uint64_t session_cache_hits = 0;
  uint64_t session_cache_lookups = 0;
  uint64_t advise_payload_hits = 0;
  uint64_t advise_requests = 0;

  // Sweeps: sweep.scenario_us from SweepOptions::metrics and RunSweep wall.
  double scenario_us_sum = 0.0;
  uint64_t scenarios = 0;
  double sweep_wall_ns = 0.0;
  unsigned outer_threads = 1;

  // Mean op time of the same op list with spans on and off (replays
  // excluded).
  double traced_op_ms = 0.0;
  double untraced_op_ms = 0.0;
};

// A warlockd control for workloads that make no service call: 64 `health`
// round trips over one connection to a 1-worker loopback server.
Status ControlService(LayerFacts& facts);

// A sweep control for workloads that run no sweep: one 4-scenario RunSweep
// (spanned), GenerateScenario on each of its scenarios, and its JSON render.
Status ControlSweep(Tracer& tracer, uint64_t seed, LayerFacts& facts);

// Calls session.Advise under a "core.advise" span and adds the session
// registry's delta and the call's wall time to facts.advise_*.
warlock::Result<warlock::AdviseResponse> TracedAdvise(
    Tracer& tracer, uint64_t op, const warlock::Session& session,
    const warlock::AdviseRequest& request, LayerFacts& facts);

// Every per-layer metric, from spans and facts.
std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const LayerFacts& facts);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
