#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace perfbench {

std::string OutcomeJson(const Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += warlock::JsonString(m.name) +
            ": {\"value\": " + warlock::JsonNumber(m.value) +
            ", \"unit\": " + warlock::JsonString(m.unit) + "}";
  }
  json += "}}";
  return json;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Rate(uint64_t ops, double wall_seconds) {
  return wall_seconds > 0.0 ? static_cast<double>(ops) / wall_seconds : 0.0;
}

size_t LatencyOpCount(double seconds, double nominal_ops_per_s) {
  size_t n = static_cast<size_t>(std::ceil(seconds * nominal_ops_per_s));
  n = std::max<size_t>(n, 1);
  while (SamplesBeyond(n, 90.0) < 10) ++n;
  return n;
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& latencies_ms,
                                    double ops_per_s, double setup_s,
                                    double peak_rss_mib) {
  return {{"p50_ms", Percentile(latencies_ms, 50.0), "ms"},
          {"p90_ms", Percentile(latencies_ms, 90.0), "ms"},
          {"ops_per_s", ops_per_s, "1/s"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mib, "MiB"}};
}

std::string SpansPath(const RunArgs& args) {
  return args.trace_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".spans.jsonl";
}

size_t ReplayStride(size_t ops) { return std::max<size_t>(1, ops / 128); }

Status ValidateThreadBudget(unsigned busy_threads) {
  if (busy_threads > kBudgetThreads) {
    return Status::InvalidArgument(
        "configuration keeps " + std::to_string(busy_threads) +
        " threads busy; the budget is " + std::to_string(kBudgetThreads));
  }
  return Status::OK();
}

void RunOnBudgetThreads(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  const auto loop = [&] {
    for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kBudgetThreads; ++t) threads.emplace_back(loop);
  for (std::thread& t : threads) t.join();
}

Status ValidateServiceBudget(unsigned server_workers, unsigned connections) {
  if (connections == 0 || server_workers == 0) {
    return Status::InvalidArgument("need at least one worker and connection");
  }
  if (connections > server_workers) {
    return Status::InvalidArgument(
        std::to_string(connections) + " connections outnumber " +
        std::to_string(server_workers) +
        " server workers; a connection holds its worker until it closes");
  }
  // Each connection is one client thread plus the worker serving it.
  return ValidateThreadBudget(2 * connections);
}

Tally CheckOutputs(const std::vector<OpOutput>& outputs,
                   const std::vector<size_t>& ref_of,
                   const std::vector<OpOutput>& refs) {
  Tally tally;
  for (size_t i = 0; i < outputs.size(); ++i) {
    const bool has_ref = i < ref_of.size() && ref_of[i] < refs.size() &&
                         refs[ref_of[i]].ok;
    tally.Add(outputs[i].ok && has_ref &&
              outputs[i].text == refs[ref_of[i]].text);
  }
  return tally;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void ResetPeakRss() {
#ifdef __GLIBC__
  // Freed setup memory otherwise stays resident in per-thread arenas in
  // amounts that depend on thread scheduling.
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr) ok &= std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "perfbench: cannot reset VmHWM\n");
}

double RegistryTotals::Get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

RegistryTotals ReadRegistry(const warlock::obs::MetricRegistry& registry) {
  const warlock::obs::MetricsSnapshot snap = registry.Snapshot();
  RegistryTotals out;
  for (const auto& [name, value] : snap.counters) {
    out.values[name] = static_cast<double>(value);
  }
  for (const auto& [name, h] : snap.histograms) {
    out.values[name + ".sum"] = static_cast<double>(h.sum_micros);
    out.values[name + ".count"] = static_cast<double>(h.count);
  }
  return out;
}

RegistryTotals Delta(const RegistryTotals& after, const RegistryTotals& before) {
  RegistryTotals out;
  for (const auto& [name, value] : after.values) {
    out.values[name] = value - before.Get(name);
  }
  return out;
}

void Accumulate(RegistryTotals& into, const RegistryTotals& delta) {
  for (const auto& [name, value] : delta.values) into.values[name] += value;
}

}  // namespace perfbench
