// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id). The harness opens spans
// around its own calls into the library — nothing inside src/ is
// instrumented — keeps them in memory, and writes them out as JSON when the
// run ends. A span's self time is its duration minus the part of its
// interval covered by its direct children (overlapping children count
// once), which is what the per-layer figures are built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index of the parent span, -1 for a root
  std::uint64_t request = 0;   ///< request id; 0 outside any request
};

/// Thread-safe span store. A disabled tracer records nothing and every call
/// is a cheap no-op, so untraced runs pay (almost) nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Nanoseconds since the tracer was created (steady clock).
  std::int64_t now_ns() const;
  std::int64_t to_ns(std::chrono::steady_clock::time_point t) const;

  /// Opens a span starting now; returns its id (-1 when disabled).
  std::int64_t open(std::string name, std::int64_t parent = -1,
                    std::uint64_t request = 0);
  /// Ends span `id` now (ignored for -1).
  void close(std::int64_t id);
  /// Records a finished span with explicit times; returns its id.
  std::int64_t record(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent = -1,
                      std::uint64_t request = 0);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;
  /// Writes {"spans": [...]} to `path`; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t parent = -1,
             std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const std::int64_t id_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// union of its direct children's intervals, each clipped to the span.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench
