// In-memory span trace taken around the calls the benchmark makes into each
// layer's public functions. Spans stay in per-thread buffers until the run
// ends; Collect() then merges them, WriteSpans() stores them as TSV, and
// SelfTimes() turns them into per-layer self time.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace pipebench {

/// \brief One timed call. `parent` is the id of the span open on the same
/// thread when this one started (-1 for a root); spans of one request share
/// `request`.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// \brief Records spans from any number of threads. Each thread appends to
/// its own buffer, so recording takes no lock; Collect() must run after the
/// recording threads have finished.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief RAII span. A non-zero `request` starts a new request on this
  /// thread; zero inherits the enclosing span's request. A null tracer makes
  /// the scope a no-op, so untraced code paths share the traced ones.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint64_t saved_request_ = 0;
  };

  /// All spans recorded so far, grouped by thread in start order.
  std::vector<Span> Collect() const;

  /// The span clock's current reading (nanoseconds since construction).
  int64_t NowNs() const;

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    uint64_t request = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  ///< indices of spans still open, innermost last
  };

  ThreadBuffer* Local();

  const uint64_t instance_;  ///< distinguishes tracers in thread-local caches
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;  ///< guards buffers_ (not the buffers' contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// \brief Time one span name accounts for: `self_s` is the spans' durations
/// minus the parts of their intervals that child spans cover.
struct LayerTime {
  double self_s = 0.0;
  double total_s = 0.0;
  uint64_t calls = 0;
};

/// Per-name self time, total time and call count.
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

/// Sum of the durations of root spans (spans without a parent).
double RootSeconds(const std::vector<Span>& spans);

/// \brief Writes spans as TSV, one per line, prefixed by `workload`:
/// workload, name, id, parent, request, thread, start_ns, end_ns.
exstream::Status WriteSpans(const std::string& path, const std::string& workload,
                            const std::vector<Span>& spans);

/// Reads WriteSpans files back, grouped by workload.
exstream::Result<std::map<std::string, std::vector<Span>>> ReadSpans(
    const std::vector<std::string>& paths);

}  // namespace pipebench
