// Spans for the traced run: name, start, end, the span that caused it, and
// the thread it ran on.  Spans are recorded in per-thread buffers while the
// run executes and are only read after it (collect()), then written as
// Chrome trace-event JSON, which Perfetto and chrome://tracing load.
//
// Only bench_e2e's own code opens spans, around its calls into each layer's
// public functions; nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct SpanRec {
  const char* name = "";     ///< string literal (static storage)
  std::uint32_t id = 0;      ///< 1-based, unique per run
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< recording thread (1-based)
  std::int64_t t0 = 0;       ///< steady-clock ns
  std::int64_t t1 = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(t1 - t0) * 1e-9;
  }
};

namespace trace {

/// Turn recording on or off (off: Span costs one relaxed load).  Turning it
/// on discards every span recorded so far.
void enable(bool on);

/// Label the calling thread in the exported trace.
void name_thread(const std::string& name);

/// Every recorded span, ordered by id.  Call only while no span is open on
/// another thread (the pools are idle between rounds).
[[nodiscard]] std::vector<SpanRec> collect();

/// Cost of recording one span on this host, in seconds.  Call before the
/// run's enable(true), which drops the calibration spans.
[[nodiscard]] double span_cost_s();

}  // namespace trace

/// RAII span.  The parent is the calling thread's innermost open span,
/// unless given explicitly (work handed to a pool thread names the span
/// that handed it over).
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  void open(std::uint32_t parent);

  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint32_t prev_current_ = 0;
  std::int64_t t0_ = 0;
};

/// The calling thread's innermost open span (0 = none).
[[nodiscard]] std::uint32_t current_span();

// ---------------------------------------------------------------------------
// Reading a collected run.
// ---------------------------------------------------------------------------

class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRec> spans);

  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] const SpanRec* by_id(std::uint32_t id) const;

  /// Spans named `name` (optionally only those under ancestor `under`).
  [[nodiscard]] std::vector<const SpanRec*> named(const char* name,
                                                  std::uint32_t under = 0) const;
  /// Durations in seconds of named(name, under).
  [[nodiscard]] std::vector<double> seconds(const char* name,
                                            std::uint32_t under = 0) const;
  [[nodiscard]] double total_s(const char* name, std::uint32_t under = 0) const;

  /// True when `ancestor` is on id's parent chain (or is id itself).
  [[nodiscard]] bool under(std::uint32_t id, std::uint32_t ancestor) const;

  /// Length of the union of the children's intervals, clipped to the span.
  [[nodiscard]] double covered_by_children_s(const SpanRec& s) const;

  /// Self time: the span's duration minus covered_by_children_s.
  [[nodiscard]] double self_s(const SpanRec& s) const {
    return s.seconds() - covered_by_children_s(s);
  }

  /// Per-name count, total and self time, largest self time first.
  [[nodiscard]] std::string self_time_table(std::size_t max_rows) const;

  /// Chrome trace-event JSON ("X" events, ts/dur in microseconds, parent
  /// and id in args).  Leaf spans beyond `leaf_cap` per name are left out
  /// of the file (never out of the metrics) to keep it loadable.
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::size_t leaf_cap) const;

 private:
  std::vector<SpanRec> spans_;
  std::vector<std::uint32_t> pos_;                   // id -> index + 1
  std::vector<std::vector<std::uint32_t>> children_;  // index -> child indices
};

}  // namespace e2e
