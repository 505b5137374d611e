#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return to_ns(std::chrono::steady_clock::now());
}

std::int64_t Tracer::to_ns(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int64_t Tracer::open(std::string name, std::int64_t parent,
                          std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), t, t, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t Tracer::record(std::string name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union swept so far
    for (const auto& [a0, b0] : iv) {
      const std::int64_t a = std::max(a0, reach);
      const std::int64_t b = std::min(b0, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(b0, hi));
    }
    self[i] = std::max<std::int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

}  // namespace perfbench
