#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

template <typename T, size_t N>
const T& Pick(const T (&options)[N], warlock::Rng& rng) {
  return options[rng.Uniform(N)];
}

constexpr std::pair<uint64_t, uint64_t> kGranulePairs[] = {
    {4, 1}, {4, 4}, {16, 1}, {16, 4}, {64, 1}, {64, 4}};

// Restricted attributes of the APB-1 mix (dimension, level).
constexpr warlock::bitmap::BitmapRef kExclusions[] = {
    {0, 2}, {0, 3}, {1, 1}, {2, 2}};

uint32_t ScaledDisks(uint32_t base, warlock::Rng& rng) {
  return rng.Uniform(2) == 0 ? base * 3 / 4 : base * 3 / 2;
}

Knobs ChangeKnobs(KnobKind kind, uint32_t base_disks, warlock::Rng& rng) {
  Knobs k;
  switch (kind) {
    case KnobKind::kGranules:
      k.granules = Pick(kGranulePairs, rng);
      break;
    case KnobKind::kDisks:
      k.disks = ScaledDisks(base_disks, rng);
      break;
    case KnobKind::kAllocator:
      switch (rng.Uniform(3)) {
        case 0:
          k.allocator = "graph";
          break;
        case 1:
          k.scheme = warlock::alloc::AllocationScheme::kRoundRobin;
          break;
        default:
          k.scheme = warlock::alloc::AllocationScheme::kGreedy;
          break;
      }
      break;
    case KnobKind::kExclusion:
      k.exclusion = Pick(kExclusions, rng);
      break;
    case KnobKind::kReturn:
      break;
  }
  return k;
}

}  // namespace

warlock::core::Advisor::Overrides Knobs::ToOverrides() const {
  warlock::core::Advisor::Overrides o;
  o.num_disks = disks;
  if (granules) {
    o.fact_granule = granules->first;
    o.bitmap_granule = granules->second;
  }
  o.allocator = allocator;
  o.allocation_scheme = scheme;
  if (exclusion) o.excluded_bitmaps.push_back(*exclusion);
  return o;
}

std::string Knobs::Key() const {
  std::string key;
  if (disks) key += "disks=" + std::to_string(*disks) + ";";
  if (granules) {
    key += "granules=" + std::to_string(granules->first) + "/" +
           std::to_string(granules->second) + ";";
  }
  if (allocator) key += "allocator=" + *allocator + ";";
  if (scheme) {
    key += std::string("scheme=") +
           warlock::alloc::AllocationSchemeName(*scheme) + ";";
  }
  if (exclusion) {
    key += "exclude=" + std::to_string(exclusion->dimension) + "." +
           std::to_string(exclusion->level) + ";";
  }
  return key;
}

const char* KnobKindName(KnobKind kind) {
  switch (kind) {
    case KnobKind::kGranules:
      return "granules";
    case KnobKind::kDisks:
      return "disks";
    case KnobKind::kAllocator:
      return "allocator";
    case KnobKind::kExclusion:
      return "exclusion";
    case KnobKind::kReturn:
      return "return";
  }
  return "?";
}

std::vector<uint32_t> AdviseColdOps(uint64_t seed, size_t n,
                                    uint32_t variants) {
  warlock::Rng rng(seed ^ 0xAD715EULL);
  const uint64_t offset = rng.Uniform(variants);
  std::vector<uint32_t> ops(n);
  for (size_t i = 0; i < n; ++i) {
    ops[i] = static_cast<uint32_t>((i + offset) % variants);
  }
  Shuffle(ops, rng);
  return ops;
}

std::vector<WhatIfOp> WhatIfOps(uint64_t seed, size_t n,
                                const std::vector<uint32_t>& base_disks,
                                uint32_t ranks) {
  // The fast class (granule changes and their returns) holds ~80% of ops,
  // so p50 sits 30 points inside it and p90 at the slow class's median.
  constexpr double kGranuleShare = 0.8;
  constexpr KnobKind kSlowKinds[] = {KnobKind::kDisks, KnobKind::kAllocator,
                                     KnobKind::kExclusion};
  warlock::Rng rng(seed ^ 0x3A7E1FULL);
  const uint32_t tracks = static_cast<uint32_t>(base_disks.size()) * ranks;
  // Per track: whether its current knob set is a change awaiting return.
  std::vector<bool> changed(tracks, false);
  std::vector<WhatIfOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WhatIfOp op;
    op.track = static_cast<uint32_t>(rng.Uniform(tracks));
    if (changed[op.track]) {
      op.kind = KnobKind::kReturn;
    } else {
      op.kind = rng.NextDouble() < kGranuleShare ? KnobKind::kGranules
                                                 : Pick(kSlowKinds, rng);
      op.knobs = ChangeKnobs(op.kind, base_disks[op.track / ranks], rng);
    }
    changed[op.track] = !changed[op.track];
    ops.push_back(std::move(op));
  }
  return ops;
}

ServicePlan MakeServicePlan(uint64_t seed, size_t ops_per_connection,
                            unsigned connections,
                            const std::vector<uint32_t>& base_disks,
                            uint32_t ranks) {
  warlock::Rng rng(seed ^ 0x5E7C1CEULL);
  ServicePlan plan;
  const uint32_t variants = static_cast<uint32_t>(base_disks.size());
  // Knob kinds rotate over the ranks (from a seeded offset), so every seed
  // warms the same number of graph, disk and granule points.
  const uint64_t offset = rng.Uniform(3);
  for (uint32_t v = 0; v < variants; ++v) {
    for (uint64_t top_k : {3u, 5u}) plan.advise_points.push_back({v, top_k});
    for (uint32_t r = 0; r < ranks; ++r) {
      WhatIfPoint p{v, r, {}};
      switch ((offset + v + r) % 3) {
        case 0:
          p.knobs.granules = Pick(kGranulePairs, rng);
          break;
        case 1:
          p.knobs.disks = ScaledDisks(base_disks[v], rng);
          break;
        default:
          p.knobs.allocator = "graph";
          break;
      }
      plan.whatif_points.push_back(std::move(p));
    }
  }
  plan.connections.resize(connections);
  for (auto& ops : plan.connections) {
    ops.reserve(ops_per_connection);
    for (size_t i = 0; i < ops_per_connection; ++i) {
      ServiceOp op;
      op.advise = rng.NextDouble() >= 0.7;
      const size_t points = op.advise ? plan.advise_points.size()
                                      : plan.whatif_points.size();
      op.point = static_cast<uint32_t>(rng.Uniform(points));
      ops.push_back(op);
    }
  }
  return plan;
}

std::vector<uint64_t> SweepCallSeeds(uint64_t seed, size_t calls) {
  warlock::Rng rng(seed ^ 0x5EE9ULL);
  std::vector<uint64_t> distinct((calls + 1) / 2);
  for (uint64_t& s : distinct) s = 1 + rng.Uniform(1000000007ULL);
  std::vector<uint64_t> out;
  out.reserve(calls);
  for (size_t i = 0; i < calls; ++i) out.push_back(distinct[i / 2]);
  Shuffle(out, rng);
  return out;
}

}  // namespace perfbench
