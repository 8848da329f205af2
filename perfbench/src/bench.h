#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the WARLOCK benchmark harness: run arguments, the result
// record printed as the last stdout line, sample statistics, the thread and
// connection budget, output checks, and in-memory span tracing.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

using warlock::Status;

// ---------------------------------------------------------------------------
// Arguments and result record.

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  // Directory the traced run writes its spans file into.
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: ops attempted and failed, whether every check held,
// and the metrics (end-to-end when untraced, per-layer when traced).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string OutcomeJson(const Outcome& outcome);

// ---------------------------------------------------------------------------
// Sample statistics.

// Nearest-rank percentile (p in [0, 100]): the smallest sample with at least
// p% of the samples at or below it. Empty input yields 0.
double Percentile(std::vector<double> samples, double p);

// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

double Mean(const std::vector<double>& samples);
double Median(std::vector<double> samples);

// Completed ops per second of wall time.
double Rate(uint64_t ops, double wall_seconds);

// Ops a latency workload runs: `seconds` times its nominal rate, but never so
// few that p90 has fewer than ten samples beyond it.
size_t LatencyOpCount(double seconds, double nominal_ops_per_s);

// Setup is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 5;

// The end-to-end metric set of one untraced pass: p50_ms and p90_ms over
// `latencies_ms`, ops_per_s, setup_s and peak_rss_mb.
std::vector<Metric> EndToEndMetrics(const std::vector<double>& latencies_ms,
                                    double ops_per_s, double setup_s,
                                    double peak_rss_mib);

// Where a traced run writes its spans.
std::string SpansPath(const RunArgs& args);

// Ops replayed in a traced pass: every `stride`-th op, about 128 per pass.
size_t ReplayStride(size_t ops);

// ---------------------------------------------------------------------------
// Thread and connection budget.

// The reference machine's vCPUs: busy threads must not exceed them.
inline constexpr unsigned kBudgetThreads = 4;

// Advisor workers per session. An Advise on N workers keeps up to N+1
// threads busy (the caller work-assists, the nested prefetch loop wakes the
// last idle worker). N = 2 keeps three busy and leaves one vCPU to the rest
// of the machine: at N = 3 every vCPU is taken, any other load stalls the
// advisor's parallel loops, and the same ops spread about twice as wide.
inline constexpr unsigned kAdvisorWorkers = 2;

// Busy threads must not exceed the budget.
Status ValidateThreadBudget(unsigned busy_threads);

// Calls fn(i) for every i in [0, n) on kBudgetThreads threads. For work
// outside the timed window whose calls keep one thread busy each.
void RunOnBudgetThreads(size_t n, const std::function<void(size_t)>& fn);

// A warlockd connection holds its worker until it closes, so a client
// connection beyond the worker count would stall; reject that up front.
Status ValidateServiceBudget(unsigned server_workers, unsigned connections);

// ---------------------------------------------------------------------------
// Output checks.

// One op's recorded output: whether its call succeeded, and what it produced.
struct OpOutput {
  bool ok = false;
  std::string text;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Compares op i's output with refs[ref_of[i]]. An op fails when its call
// returned an error, its reference is missing, or the bytes differ.
Tally CheckOutputs(const std::vector<OpOutput>& outputs,
                   const std::vector<size_t>& ref_of,
                   const std::vector<OpOutput>& refs);

// ---------------------------------------------------------------------------
// Time and memory.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMiB();

// Returns freed heap memory to the system and resets VmHWM to the current
// resident set (Linux clear_refs "5"), so the next PeakRssMiB() reads the
// peak since this call: the timed phase's peak, not setup's. Warns on
// stderr when the kernel refuses.
void ResetPeakRss();

// ---------------------------------------------------------------------------
// Spans. A disabled tracer records nothing and reads no clock.

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t work = 0;  // hits returned, grid points costed, bytes parsed, ...
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // RAII span: opens on construction (becoming the parent of spans opened
  // on this thread until it closes) and records on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, uint64_t op);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    void set_work(uint64_t work) { span_.work = work; }

   private:
    Tracer* tracer_;  // null when disabled
    Span span_;
    uint64_t saved_parent_ = 0;
  };

  struct Aggregate {
    uint64_t calls = 0;
    double total_ns = 0.0;
    uint64_t work = 0;
  };
  // Sum over every span with this name.
  Aggregate Total(std::string_view name) const;

  // Writes one JSON object per span.
  Status WriteJsonl(const std::string& path) const;

 private:
  void Record(Span span);

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, Aggregate, std::less<>> totals_;
};

// ---------------------------------------------------------------------------
// Registry reads: counter values and histogram sums (µs) by name.

struct RegistryTotals {
  std::map<std::string, double> values;
  double Get(const std::string& name) const;
};
RegistryTotals ReadRegistry(const warlock::obs::MetricRegistry& registry);
// after - before, name by name.
RegistryTotals Delta(const RegistryTotals& after, const RegistryTotals& before);
void Accumulate(RegistryTotals& into, const RegistryTotals& delta);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
