#include <cstdio>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The APB-1 hierarchies at half the density of tests/testdata/apb1_tiny
// (874,800 Sales rows): a cold Advise takes about 0.12 s on 2 workers, so a
// run holds enough of them for a p90 with ten samples beyond it.
std::string ApbSchema(bool skew, double theta) {
  char product[64];
  if (skew) {
    std::snprintf(product, sizeof(product), "dimension Product skew %.3f\n",
                  theta);
  } else {
    std::snprintf(product, sizeof(product), "dimension Product\n");
  }
  return std::string("schema APB1-bench\n") + product +
         "level Division 2\n"
         "level Line 7\n"
         "level Family 20\n"
         "level Group 100\n"
         "level Class 900\n"
         "level Code 9000\n"
         "dimension Customer\n"
         "level Retailer 90\n"
         "level Store 900\n"
         "dimension Time\n"
         "level Year 2\n"
         "level Quarter 8\n"
         "level Month 24\n"
         "dimension Channel\n"
         "level Base 9\n"
         "fact Sales 874800 100\n"
         "measure UnitsSold 8\n"
         "measure DollarSales 8\n"
         "measure DollarCost 8\n";
}

struct MixClass {
  const char* name;
  double weight;
  const char* restrictions;
};

// The compact APB-1 mix of the golden-ranking fixture.
constexpr MixClass kMix[] = {
    {"Month", 0.18, "restrict Time Month\n"},
    {"MonthDivision", 0.14, "restrict Product Division\nrestrict Time Month\n"},
    {"MonthFamily", 0.18, "restrict Product Family\nrestrict Time Month\n"},
    {"MonthGroup", 0.16, "restrict Product Group\nrestrict Time Month\n"},
    {"MonthStore", 0.12, "restrict Customer Store\nrestrict Time Month\n"},
    {"QuarterGroupRetailer", 0.12,
     "restrict Product Group\nrestrict Customer Retailer\n"
     "restrict Time Quarter\n"},
    {"ChannelOnly", 0.10, "restrict Channel Base\n"},
};

// Weights jittered by a factor in [0.75, 1.25]: class c takes the
// strata[c]-th of `strata` equal slices of that range, at a seeded offset.
std::string ApbWorkload(const std::vector<uint32_t>& stratum, uint32_t strata,
                        warlock::Rng& rng) {
  std::string text;
  for (size_t c = 0; c < std::size(kMix); ++c) {
    const double u = (stratum[c] + rng.NextDouble()) / strata;
    const double w = kMix[c].weight * (0.75 + 0.5 * u);
    char line[96];
    std::snprintf(line, sizeof(line), "query %s %.4f\n", kMix[c].name, w);
    text += line;
    text += kMix[c].restrictions;
  }
  return text;
}

std::string ApbConfig(uint32_t disks) {
  return "disks " + std::to_string(disks) +
         "\n"
         "page_size 8192\n"
         "disk_capacity_gb 16\n"
         "seek_ms 8\n"
         "rotational_ms 4.2\n"
         "transfer_mbs 25\n"
         "fact_granule auto\n"
         "bitmap_granule auto\n"
         "max_fragments 65536\n"
         "min_avg_fragment_pages 4\n"
         "max_dimensions 3\n"
         "standard_max_cardinality 64\n"
         "leading_fraction 0.25\n"
         "top_k 5\n"
         "allocation auto\n"
         "samples_per_class 4\n"
         "prefetch_samples 2\n"
         "seed 42\n";
}

}  // namespace

std::vector<InputVariant> ApbVariants(uint64_t seed, uint32_t per_type) {
  warlock::Rng rng(seed ^ 0xA9B1ULL);
  // Latin-hypercube jitter: within one structural type, the per_type
  // variants take distinct slices of the theta range and of every class's
  // weight range, so each type covers the whole range at every seed and
  // only the pairing of slices (and the offset within a slice) is seeded.
  const auto slices = [&] {
    std::vector<uint32_t> order(per_type);
    std::iota(order.begin(), order.end(), 0u);
    Shuffle(order, rng);
    return order;
  };
  std::vector<InputVariant> out;
  for (bool skew : {false, true}) {
    for (uint32_t disks : {16u, 32u}) {
      const std::vector<uint32_t> theta_slice = slices();
      std::vector<std::vector<uint32_t>> weight_slice;
      for (size_t c = 0; c < std::size(kMix); ++c) {
        weight_slice.push_back(slices());
      }
      for (uint32_t j = 0; j < per_type; ++j) {
        InputVariant v;
        v.skew = skew;
        v.disks = disks;
        v.name = std::string(skew ? "skew" : "uniform") + "-" +
                 std::to_string(disks) + "d-" + std::to_string(j);
        const double theta =
            0.6 + 0.3 * (theta_slice[j] + rng.NextDouble()) / per_type;
        std::vector<uint32_t> stratum;
        for (const auto& s : weight_slice) stratum.push_back(s[j]);
        v.schema_text = ApbSchema(skew, theta);
        v.workload_text = ApbWorkload(stratum, per_type, rng);
        v.config_text = ApbConfig(disks);
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> FragmentationNames(
    const warlock::fragment::Fragmentation& fragmentation,
    const warlock::schema::StarSchema& schema) {
  std::vector<std::pair<std::string, std::string>> names;
  for (const warlock::fragment::FragAttr& a : fragmentation.attrs()) {
    const warlock::schema::Dimension& dim = schema.dimension(a.dim);
    names.emplace_back(dim.name(), dim.level(a.level).name);
  }
  return names;
}

std::string Fingerprint(const warlock::core::EvaluatedCandidate& c) {
  std::string out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%a,", v);
    out += buf;
  };
  const auto u64 = [&](uint64_t v) { out += std::to_string(v) + ","; };
  for (const warlock::fragment::FragAttr& a : c.fragmentation.attrs()) {
    u64(a.dim);
    u64(a.level);
  }
  out += c.excluded ? "x:" + c.exclusion_reason + "," : "-,";
  u64(c.num_fragments);
  u64(c.total_pages);
  num(c.avg_fragment_pages);
  num(c.size_skew_factor);
  num(c.bitmap_storage_bytes);
  u64(static_cast<uint64_t>(c.allocation_scheme));
  out += c.allocation_method + ",";
  num(c.allocation_balance);
  for (uint64_t b : c.disk_bytes) u64(b);
  u64(c.fact_granule);
  u64(c.bitmap_granule);
  num(c.screening_io_work_ms);
  u64(c.fully_evaluated ? 1 : 0);
  num(c.cost.io_work_ms);
  num(c.cost.response_ms);
  num(c.cost.total_ios);
  num(c.cost.total_pages);
  for (const warlock::cost::QueryCost& q : c.cost.per_class) {
    for (double v : {q.fragments_hit, q.fact_pages, q.bitmap_pages, q.fact_ios,
                     q.bitmap_ios, q.io_work_ms, q.response_ms, q.disks_used}) {
      num(v);
    }
  }
  return out;
}

std::string SweepSpecText(uint64_t spec_seed, uint32_t scenarios) {
  return "sweep bench\n"
         "seed " + std::to_string(spec_seed) + "\n" +
         "scenarios " + std::to_string(scenarios) + "\n" +
         "dimensions 3 3\n"
         "levels 1 2\n"
         "top_cardinality 2 4\n"
         "fanout 4 8\n"
         "skew_probability 0.5\n"
         "skew_theta 0.5 1.0\n"
         "fact_rows 100000 200000\n"
         "row_bytes 64 96\n"
         "measures 1 2\n"
         "query_classes 3 4\n"
         "restrictions 1 2\n"
         "num_values 1 2\n"
         "disks 8 16\n"
         "samples_per_class 2\n"
         "top_k 3\n";
}

}  // namespace perfbench
