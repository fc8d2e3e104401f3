#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "common.hpp"
#include "util/text.hpp"

namespace e2e {

namespace {

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::string name;
  std::vector<SpanRec> spans;
};

std::mutex g_mu;
// Buffers live until exit: a thread_local pointer may outlive its thread's
// use of it, never the buffer.
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::atomic<bool> g_on{false};
std::atomic<std::uint32_t> g_next_id{1};

thread_local ThreadBuf* tl_buf = nullptr;
thread_local std::uint32_t tl_current = 0;

ThreadBuf& local_buf() {
  if (tl_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    tl_buf = g_bufs.back().get();
    tl_buf->tid = static_cast<std::uint32_t>(g_bufs.size());
  }
  return *tl_buf;
}

}  // namespace

namespace trace {

void enable(bool on) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (on) {
    for (auto& b : g_bufs) b->spans.clear();
    g_next_id.store(1);
  }
  g_on.store(on);
}

void name_thread(const std::string& name) { local_buf().name = name; }

std::vector<SpanRec> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRec> all;
  for (const auto& b : g_bufs) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.id < b.id; });
  return all;
}

double span_cost_s() {
  constexpr int kReps = 100000;
  enable(true);
  const double t0 = now_s();
  for (int i = 0; i < kReps; ++i) {
    const Span s("bench.calibrate");
  }
  const double dt = now_s() - t0;
  enable(false);  // the next enable(true) drops the calibration spans
  return dt / kReps;
}

}  // namespace trace

std::uint32_t current_span() { return tl_current; }

Span::Span(const char* name) : name_(name) {
  if (g_on.load(std::memory_order_relaxed)) open(tl_current);
}

Span::Span(const char* name, std::uint32_t parent) : name_(name) {
  if (g_on.load(std::memory_order_relaxed)) open(parent);
}

void Span::open(std::uint32_t parent) {
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  prev_current_ = tl_current;
  tl_current = id_;
  t0_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t t1 = now_ns();
  tl_current = prev_current_;
  ThreadBuf& b = local_buf();
  b.spans.push_back({name_, id_, parent_, b.tid, t0_, t1});
}

// ---------------------------------------------------------------------------

SpanIndex::SpanIndex(std::vector<SpanRec> spans) : spans_(std::move(spans)) {
  std::uint32_t max_id = 0;
  for (const SpanRec& s : spans_) max_id = std::max(max_id, s.id);
  pos_.assign(static_cast<std::size_t>(max_id) + 1, 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    pos_[spans_[i].id] = static_cast<std::uint32_t>(i + 1);
  }
  children_.resize(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (const SpanRec* p = by_id(spans_[i].parent)) {
      children_[static_cast<std::size_t>(p - spans_.data())].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
}

const SpanRec* SpanIndex::by_id(std::uint32_t id) const {
  if (id == 0 || id >= pos_.size() || pos_[id] == 0) return nullptr;
  return &spans_[pos_[id] - 1];
}

bool SpanIndex::under(std::uint32_t id, std::uint32_t ancestor) const {
  for (const SpanRec* s = by_id(id); s != nullptr; s = by_id(s->parent)) {
    if (s->id == ancestor) return true;
  }
  return false;
}

std::vector<const SpanRec*> SpanIndex::named(const char* name,
                                             std::uint32_t ancestor) const {
  const std::string_view want(name);
  std::vector<const SpanRec*> out;
  for (const SpanRec& s : spans_) {
    if (want == s.name && (ancestor == 0 || under(s.id, ancestor))) {
      out.push_back(&s);
    }
  }
  return out;
}

std::vector<double> SpanIndex::seconds(const char* name,
                                       std::uint32_t ancestor) const {
  std::vector<double> out;
  for (const SpanRec* s : named(name, ancestor)) out.push_back(s->seconds());
  return out;
}

double SpanIndex::total_s(const char* name, std::uint32_t ancestor) const {
  double t = 0;
  for (const double d : seconds(name, ancestor)) t += d;
  return t;
}

double SpanIndex::covered_by_children_s(const SpanRec& s) const {
  const auto idx = static_cast<std::size_t>(&s - spans_.data());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const std::uint32_t c : children_[idx]) {
    const SpanRec& ch = spans_[c];
    const std::int64_t a = std::max(ch.t0, s.t0);
    const std::int64_t b = std::min(ch.t1, s.t1);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t end = s.t0;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, end);
    if (b > from) covered += b - from;
    end = std::max(end, b);
  }
  return static_cast<double>(covered) * 1e-9;
}

std::string SpanIndex::self_time_table(std::size_t max_rows) const {
  struct Row {
    long long count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRec& s : spans_) {
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.seconds();
    r.self += self_s(s);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out = "span                              count      total_s       self_s\n";
  for (std::size_t i = 0; i < sorted.size() && i < max_rows; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-30s %9lld %12.4f %12.4f\n",
                  sorted[i].first.c_str(), sorted[i].second.count,
                  sorted[i].second.total, sorted[i].second.self);
    out += buf;
  }
  return out;
}

bool SpanIndex::write_chrome(const std::string& path,
                             std::size_t leaf_cap) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0;
  for (const SpanRec& s : spans_) origin = std::min(origin, s.t0);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& b : g_bufs) {
      if (b->name.empty()) continue;
      std::fprintf(f,
                   "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", b->tid,
                   mcan::json_escape(b->name).c_str());
      first = false;
    }
  }
  std::map<std::string_view, std::size_t> leaves;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (children_[i].empty() && ++leaves[s.name] > leaf_cap) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                 "\"parent\": %u}}",
                 first ? "" : ",\n", s.name, s.tid,
                 static_cast<double>(s.t0 - origin) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3, s.id, s.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
