#include "trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace pipebench {

namespace {

std::atomic<uint64_t> g_next_tracer{1};

struct LocalCache {
  uint64_t instance = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

Tracer::Tracer()
    : instance_(g_next_tracer.fetch_add(1)), epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer* Tracer::Local() {
  if (t_cache.instance == instance_) return static_cast<ThreadBuffer*>(t_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->thread = static_cast<uint32_t>(buffers_.size());
  buffers_.push_back(std::move(buffer));
  t_cache = LocalCache{instance_, buffers_.back().get()};
  return buffers_.back().get();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ThreadBuffer* buf = tracer_->Local();
  saved_request_ = buf->request;
  if (request != 0) buf->request = request;
  Span span;
  span.name = name;
  span.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buf->open.empty() ? -1 : buf->spans[buf->open.back()].id;
  span.request = buf->request;
  span.thread = buf->thread;
  buf->open.push_back(buf->spans.size());
  buf->spans.push_back(std::move(span));
  buf->spans.back().start_ns = tracer_->NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t now = tracer_->NowNs();
  ThreadBuffer* buf = tracer_->Local();
  buf->spans[buf->open.back()].end_ns = now;
  buf->open.pop_back();
  buf->request = saved_request_;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto it = index_of.find(spans[i].parent);
    if (it != index_of.end()) children[it->second].push_back(i);
  }

  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the child intervals, clipped to the parent, so overlapping
    // children are not subtracted twice.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered_ns += run_hi - run_lo;

    LayerTime& layer = out[s.name];
    layer.total_s += s.seconds();
    layer.self_s += static_cast<double>(s.end_ns - s.start_ns - covered_ns) * 1e-9;
    ++layer.calls;
  }
  return out;
}

double RootSeconds(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) total += s.seconds();
  }
  return total;
}

exstream::Status WriteSpans(const std::string& path, const std::string& workload,
                            const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return exstream::Status::IOError("cannot open " + path);
  for (const Span& s : spans) {
    out << workload << '\t' << s.name << '\t' << s.id << '\t' << s.parent << '\t'
        << s.request << '\t' << s.thread << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
  out.close();
  if (!out) return exstream::Status::IOError("write failed: " + path);
  return exstream::Status::OK();
}

exstream::Result<std::map<std::string, std::vector<Span>>> ReadSpans(
    const std::vector<std::string>& paths) {
  std::map<std::string, std::vector<Span>> out;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) return exstream::Status::IOError("cannot open " + path);
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      std::istringstream fields(line);
      std::string workload;
      Span s;
      if (!std::getline(fields, workload, '\t') || !std::getline(fields, s.name, '\t') ||
          !(fields >> s.id >> s.parent >> s.request >> s.thread >> s.start_ns >>
            s.end_ns)) {
        return exstream::Status::Corruption(path + ":" + std::to_string(line_no) +
                                            ": malformed span line");
      }
      out[workload].push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace pipebench
