#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// Seeded inputs, op lists and the four workloads. Every op list is a pure
// function of the seed and the run length, and always runs to completion.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocators.h"
#include "bench.h"
#include "bitmap/scheme.h"
#include "common/rng.h"
#include "core/advisor.h"

namespace perfbench {

// A seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& items, warlock::Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Uniform(i)]);
  }
}

// ---------------------------------------------------------------------------
// Inputs.

// One APB-1-shaped advisor input as the three input-layer texts.
struct InputVariant {
  std::string name;
  std::string schema_text;
  std::string workload_text;
  std::string config_text;
  uint32_t disks = 16;
  bool skew = false;
};

// `per_type` variants of each of the four structural types (Product skew
// off/on x 16/32 disks) with seeded skew theta and mix weights, drawn so
// that every type covers the full jitter range at every seed. Their cold
// Advise costs are within 2x.
std::vector<InputVariant> ApbVariants(uint64_t seed, uint32_t per_type);

// A generated-scenario sweep spec (narrower than examples/data/demo.sweep so
// that no single scenario dominates a call) with `scenarios` scenarios.
std::string SweepSpecText(uint64_t spec_seed, uint32_t scenarios);

// The (dimension, level) names of a fragmentation, as requests carry them.
std::vector<std::pair<std::string, std::string>> FragmentationNames(
    const warlock::fragment::Fragmentation& fragmentation,
    const warlock::schema::StarSchema& schema);

// Every field of an evaluated candidate, doubles in hex, so equal strings
// mean bit-identical results.
std::string Fingerprint(const warlock::core::EvaluatedCandidate& candidate);

// ---------------------------------------------------------------------------
// Op lists.

// advise_cold: the input variant of each op, a seeded shuffle of a balanced
// multiset over `variants`.
std::vector<uint32_t> AdviseColdOps(uint64_t seed, size_t n, uint32_t variants);

// One what-if knob set, relative to the session's configuration.
struct Knobs {
  std::optional<uint32_t> disks;
  std::optional<std::pair<uint64_t, uint64_t>> granules;  // fact, bitmap
  std::optional<std::string> allocator;
  std::optional<warlock::alloc::AllocationScheme> scheme;
  std::optional<warlock::bitmap::BitmapRef> exclusion;

  warlock::core::Advisor::Overrides ToOverrides() const;
  // A stable text key (equal knob sets, equal keys).
  std::string Key() const;
};

enum class KnobKind : uint8_t {
  kGranules,   // a fixed granule pair: bypasses the prefetch search
  kDisks,      // the disk count
  kAllocator,  // the graph backend, or a forced allocation scheme
  kExclusion,  // one bitmap exclusion
  kReturn,     // back to the fragmentation's previous knob set
};
const char* KnobKindName(KnobKind kind);

// A track is one (variant, rank) pair: the rank-th fragmentation of the
// variant's ranking. track = variant * ranks + rank.
struct WhatIfOp {
  uint32_t track = 0;
  KnobKind kind = KnobKind::kReturn;
  Knobs knobs;
};

// Each op picks a track. A track at its base knob set gets one change —
// granule pair 80%, disk count, allocator or exclusion 6.7% each — and a
// changed track returns to its base set. Granule changes and their returns
// are the fast class (no prefetch search); the rest search again.
// `base_disks[v]` is variant v's configured disk count.
std::vector<WhatIfOp> WhatIfOps(uint64_t seed, size_t n,
                                const std::vector<uint32_t>& base_disks,
                                uint32_t ranks);

// service_warm: a warmed advise payload or what-if point per request.
struct AdvisePoint {
  uint32_t variant = 0;
  uint64_t top_k = 0;
};
struct WhatIfPoint {
  uint32_t variant = 0;
  uint32_t rank = 0;
  Knobs knobs;  // only the knobs the protocol carries: disks, granules,
                // allocator
};
struct ServiceOp {
  bool advise = false;
  uint32_t point = 0;  // index into advise or what-if points
};
struct ServicePlan {
  std::vector<AdvisePoint> advise_points;
  std::vector<WhatIfPoint> whatif_points;
  std::vector<std::vector<ServiceOp>> connections;  // one op list each
};
// 70% of requests are what-if requests, 30% advise requests.
ServicePlan MakeServicePlan(uint64_t seed, size_t ops_per_connection,
                            unsigned connections,
                            const std::vector<uint32_t>& base_disks,
                            uint32_t ranks);

// sweep_generated: the spec seed of each RunSweep call. Every spec appears
// twice, so the 1-worker reference runs each distinct spec once.
std::vector<uint64_t> SweepCallSeeds(uint64_t seed, size_t calls);

// ---------------------------------------------------------------------------
// Workloads. Each runs its op list untraced (end-to-end metrics) or, with
// args.trace, twice — untraced, then with spans and layer replays — and
// reports per-layer metrics.

Outcome RunAdviseCold(const RunArgs& args);
Outcome RunWhatIfTuning(const RunArgs& args);
Outcome RunServiceWarm(const RunArgs& args);
Outcome RunSweepGenerated(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
