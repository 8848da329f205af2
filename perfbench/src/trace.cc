#include <atomic>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/json.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> next_span_id{1};
thread_local uint64_t current_parent = 0;

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, uint64_t op)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = std::string(name);
  span_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = current_parent;
  span_.op = op;
  saved_parent_ = current_parent;
  current_parent = span_.id;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  current_parent = saved_parent_;
  tracer_->Record(std::move(span_));
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  Aggregate& agg = totals_[span.name];
  ++agg.calls;
  agg.total_ns += static_cast<double>(span.end_ns - span.start_ns);
  agg.work += span.work;
  spans_.push_back(std::move(span));
}

Tracer::Aggregate Tracer::Total(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = totals_.find(name);
  return it == totals_.end() ? Aggregate{} : it->second;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":%s,\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"work\":%llu}\n",
                 warlock::JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.work));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("write failed: " + path);
}

}  // namespace perfbench
