// Tests of the benchmark harness itself: sample arithmetic, seeded op lists,
// output checks and the thread/connection budget. Exits nonzero on failure.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
    }                                                                  \
  } while (0)

using namespace perfbench;

void PercentileAndRateArithmetic() {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  CHECK(Percentile(ten, 50) == 5);
  CHECK(Percentile(ten, 90) == 9);
  CHECK(Percentile(ten, 100) == 10);
  CHECK(Percentile(ten, 0) == 1);
  CHECK(Percentile({}, 50) == 0);
  CHECK(Percentile({3.5}, 90) == 3.5);
  CHECK(SamplesBeyond(100, 90) == 10);
  CHECK(SamplesBeyond(10, 90) == 1);
  CHECK(SamplesBeyond(109, 90) == 10);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
  CHECK(Median({5, 1, 3}) == 3);
  CHECK(Mean({1, 2, 3, 6}) == 3);
  CHECK(Rate(100, 2.0) == 50);
  CHECK(Rate(5, 0.0) == 0);
  // The op count keeps ten samples beyond p90.
  CHECK(LatencyOpCount(1.0, 9.0) == 100);
  CHECK(LatencyOpCount(12.0, 9.0) == 108);
  CHECK(SamplesBeyond(LatencyOpCount(0.5, 3.0), 90) >= 10);
  const std::vector<Metric> e2e = EndToEndMetrics(ten, 12.5, 0.25, 7.0);
  CHECK(e2e.size() == 5);
  CHECK(e2e[0].name == "p50_ms" && e2e[0].value == 5 && e2e[0].unit == "ms");
  CHECK(e2e[1].name == "p90_ms" && e2e[1].value == 9);
  CHECK(e2e[2].name == "ops_per_s" && e2e[2].unit == "1/s");
}

std::string Key(const std::vector<WhatIfOp>& ops) {
  std::string key;
  for (const WhatIfOp& op : ops) {
    key += std::to_string(op.track) + KnobKindName(op.kind) + op.knobs.Key() +
           ";";
  }
  return key;
}

std::string Key(const ServicePlan& plan) {
  std::string key;
  for (const WhatIfPoint& p : plan.whatif_points) {
    key += std::to_string(p.variant) + "/" + std::to_string(p.rank) +
           p.knobs.Key() + ";";
  }
  for (const auto& ops : plan.connections) {
    for (const ServiceOp& op : ops) {
      key += op.advise ? 'a' : 'w';
      key += std::to_string(op.point);
      key += ',';
    }
  }
  return key;
}

void OpListsAreSeeded() {
  CHECK(AdviseColdOps(7, 100, 4) == AdviseColdOps(7, 100, 4));
  CHECK(AdviseColdOps(7, 100, 4) != AdviseColdOps(8, 100, 4));
  std::map<uint32_t, int> per_variant;
  for (uint32_t v : AdviseColdOps(7, 100, 4)) ++per_variant[v];
  CHECK(per_variant.size() == 4);
  for (const auto& [v, count] : per_variant) CHECK(count == 25);

  const std::vector<uint32_t> disks = {16, 32, 16, 32};
  const auto ops = WhatIfOps(7, 500, disks, 3);
  CHECK(Key(ops) == Key(WhatIfOps(7, 500, disks, 3)));
  CHECK(Key(ops) != Key(WhatIfOps(8, 500, disks, 3)));
  // Every change is followed, on its track, by a return to the base set.
  std::vector<bool> changed(12, false);
  size_t granules = 0;
  size_t changes = 0;
  for (const WhatIfOp& op : ops) {
    CHECK(op.track < 12);
    CHECK((op.kind == KnobKind::kReturn) == changed[op.track]);
    if (op.kind == KnobKind::kReturn) CHECK(op.knobs.Key().empty());
    if (op.kind != KnobKind::kReturn) {
      ++changes;
      if (op.kind == KnobKind::kGranules) ++granules;
    }
    changed[op.track] = !changed[op.track];
  }
  CHECK(granules * 2 > changes);

  const ServicePlan plan = MakeServicePlan(7, 1000, 2, disks, 3);
  CHECK(Key(plan) == Key(MakeServicePlan(7, 1000, 2, disks, 3)));
  CHECK(Key(plan) != Key(MakeServicePlan(8, 1000, 2, disks, 3)));
  CHECK(plan.connections.size() == 2);
  CHECK(plan.connections[0].size() == 1000);
  size_t advise = 0;
  for (const ServiceOp& op : plan.connections[0]) advise += op.advise ? 1 : 0;
  CHECK(advise > 200 && advise < 400);
  for (const WhatIfPoint& p : plan.whatif_points) {
    CHECK(!p.knobs.scheme && !p.knobs.exclusion);  // not carried by requests
  }

  const auto calls = SweepCallSeeds(7, 40);
  CHECK(calls == SweepCallSeeds(7, 40));
  CHECK(calls != SweepCallSeeds(8, 40));
  std::map<uint64_t, int> uses;
  for (uint64_t s : calls) ++uses[s];
  CHECK(uses.size() == 20);
  for (const auto& [seed, count] : uses) CHECK(count == 2);

  const auto a = ApbVariants(7, 3);
  const auto b = ApbVariants(7, 3);
  const auto c = ApbVariants(8, 3);
  CHECK(a.size() == 12);
  for (size_t i = 0; i < a.size(); ++i) {
    CHECK(a[i].schema_text == b[i].schema_text);
    CHECK(a[i].workload_text == b[i].workload_text);
    CHECK(a[i].workload_text != c[i].workload_text);
  }
  CHECK(SweepSpecText(7, 4) != SweepSpecText(8, 4));
}

// Each structural type's variants take one slice each of the theta range
// [0.6, 0.9], whatever the seed, so a run never draws all-mild or all-steep
// skew.
void VariantsCoverThetaRange() {
  constexpr uint32_t kPerType = 3;
  for (uint64_t seed : {1, 2, 3}) {
    const auto variants = ApbVariants(seed, kPerType);
    CHECK(variants.size() == 4 * kPerType);
    for (size_t type = 0; type < 4; ++type) {
      std::vector<bool> slice_taken(kPerType, false);
      for (size_t j = 0; j < kPerType; ++j) {
        const InputVariant& v = variants[type * kPerType + j];
        const size_t at = v.schema_text.find("skew ");
        CHECK((at != std::string::npos) == v.skew);
        if (at == std::string::npos) continue;
        const double theta = std::stod(v.schema_text.substr(at + 5));
        const auto slice = static_cast<size_t>((theta - 0.6) / 0.3 * kPerType);
        CHECK(slice < kPerType && !slice_taken[slice]);
        if (slice < kPerType) slice_taken[slice] = true;
      }
    }
  }
}

void CorruptedOutputFails() {
  const std::vector<OpOutput> refs = {{true, "alpha"}, {true, "beta"}};
  std::vector<OpOutput> outputs = {
      {true, "alpha"}, {true, "beta"}, {true, "alpha"}};
  const std::vector<size_t> ref_of = {0, 1, 0};
  Tally clean = CheckOutputs(outputs, ref_of, refs);
  CHECK(clean.attempted == 3 && clean.failed == 0);

  outputs[1].text[0] = 'B';  // one corrupted byte
  Tally corrupted = CheckOutputs(outputs, ref_of, refs);
  CHECK(corrupted.attempted == 3 && corrupted.failed == 1);

  outputs[1] = {false, "beta"};  // an error status with the right bytes
  CHECK(CheckOutputs(outputs, ref_of, refs).failed == 1);

  // A failed reference fails the ops that depend on it.
  const std::vector<OpOutput> bad_refs = {{false, "alpha"}, {true, "beta"}};
  outputs[1] = {true, "beta"};
  CHECK(CheckOutputs(outputs, ref_of, bad_refs).failed == 2);
}

void BudgetIsEnforced() {
  CHECK(ValidateServiceBudget(2, 2).ok());
  CHECK(ValidateServiceBudget(2, 1).ok());
  CHECK(!ValidateServiceBudget(2, 3).ok());
  CHECK(!ValidateServiceBudget(0, 0).ok());
  // Two connections on two workers fit; three on three would not.
  CHECK(!ValidateServiceBudget(3, 3).ok());
  CHECK(ValidateThreadBudget(kAdvisorWorkers + 1).ok());
  CHECK(ValidateThreadBudget(kBudgetThreads).ok());
  CHECK(!ValidateThreadBudget(kBudgetThreads + 1).ok());

  std::vector<int> visits(37, 0);
  RunOnBudgetThreads(visits.size(), [&](size_t i) { ++visits[i]; });
  CHECK(visits == std::vector<int>(37, 1));
}

void ResultLineShape() {
  Outcome o;
  o.attempted = 3;
  o.failed = 1;
  o.correct = false;
  o.metrics = {{"p50_ms", 1.5, "ms"}};
  CHECK(OutcomeJson(o) ==
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
        "{\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
}

}  // namespace

int main() {
  PercentileAndRateArithmetic();
  OpListsAreSeeded();
  VariantsCoverThetaRange();
  CorruptedOutputFails();
  BudgetIsEnforced();
  ResultLineShape();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
