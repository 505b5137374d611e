#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include <sys/resource.h>

namespace tinyadc::serve {

namespace {

/// Bucket index for a latency in microseconds.
std::size_t bucket_index(double us) {
  if (us <= 1.0) return 0;
  const double idx = LatencyHistogram::kSub * std::log2(us);
  const auto i = static_cast<std::size_t>(idx);
  return i >= LatencyHistogram::kBuckets ? LatencyHistogram::kBuckets - 1 : i;
}

/// Geometric midpoint of bucket `i` in microseconds.
double bucket_mid(std::size_t i) {
  return std::exp2((static_cast<double>(i) + 0.5) / LatencyHistogram::kSub);
}

}  // namespace

void LatencyHistogram::record(double us) {
  ++buckets_[bucket_index(us)];
  ++count_;
  sum_us_ += us;
  if (us > max_us_) max_us_ = us;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (static_cast<double>(cum) >= rank && buckets_[i] > 0)
      return std::min(bucket_mid(i), max_us_);
  }
  return max_us_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_us_ += other.sum_us_;
  if (other.max_us_ > max_us_) max_us_ = other.max_us_;
}

std::string ServeStats::to_table() const {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "%-22s %12llu\n", "requests",
                static_cast<unsigned long long>(requests));
  out += line;
  std::snprintf(line, sizeof(line), "%-22s %12llu  (mean size %.2f)\n",
                "batches", static_cast<unsigned long long>(batches),
                mean_batch);
  out += line;
  if (rejected > 0) {
    std::snprintf(line, sizeof(line), "%-22s %12llu\n", "rejected",
                  static_cast<unsigned long long>(rejected));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-22s %12.1f\n", "qps", qps);
  out += line;
  std::snprintf(line, sizeof(line),
                "%-22s p50 %.0f  p95 %.0f  p99 %.0f  mean %.0f  max %.0f\n",
                "latency (us)", p50_us, p95_us, p99_us, mean_us, max_us);
  out += line;
  std::snprintf(line, sizeof(line), "%-22s %12zu\n", "max queue depth",
                max_queue_depth);
  out += line;
  std::string hist;
  for (std::size_t b = 1; b < batch_hist.size(); ++b)
    if (batch_hist[b] > 0) {
      char cell[48];
      std::snprintf(cell, sizeof(cell), " %zu:%llu", b,
                    static_cast<unsigned long long>(batch_hist[b]));
      hist += cell;
    }
  out += "batch size histogram  ";
  out += hist.empty() ? " (none)" : hist;
  out += "\n";
  std::snprintf(line, sizeof(line),
                "%-22s conv %lld  clip %lld  dac-cycles %lld\n", "adc",
                static_cast<long long>(adc_conversions),
                static_cast<long long>(adc_clip_events),
                static_cast<long long>(dac_cycles));
  out += line;
  if (peak_rss_kb > 0) {
    std::snprintf(line, sizeof(line), "%-22s %12lld\n", "peak rss (kb)",
                  static_cast<long long>(peak_rss_kb));
    out += line;
  }
  if (load_map_ms > 0.0 || load_validate_ms > 0.0 || load_stream_ms > 0.0) {
    std::snprintf(line, sizeof(line),
                  "%-22s map %.2f  validate %.2f  stream %.2f\n",
                  "artifact load (ms)", load_map_ms, load_validate_ms,
                  load_stream_ms);
    out += line;
  }
  return out;
}

std::string ServeStats::to_json() const {
  std::ostringstream out;
  out << "{\"requests\": " << requests << ", \"batches\": " << batches
      << ", \"rejected\": " << rejected << ", \"wall_s\": " << wall_s
      << ", \"qps\": " << qps << ", \"p50_us\": " << p50_us
      << ", \"p95_us\": " << p95_us << ", \"p99_us\": " << p99_us
      << ", \"mean_us\": " << mean_us << ", \"max_us\": " << max_us
      << ", \"mean_batch\": " << mean_batch
      << ", \"max_queue_depth\": " << max_queue_depth
      << ", \"adc_conversions\": " << adc_conversions
      << ", \"adc_clip_events\": " << adc_clip_events
      << ", \"dac_cycles\": " << dac_cycles
      << ", \"peak_rss_kb\": " << peak_rss_kb
      << ", \"load_map_ms\": " << load_map_ms
      << ", \"load_validate_ms\": " << load_validate_ms
      << ", \"load_stream_ms\": " << load_stream_ms << ", \"batch_hist\": [";
  for (std::size_t b = 0; b < batch_hist.size(); ++b)
    out << (b ? ", " : "") << batch_hist[b];
  out << "]}";
  return out.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

std::int64_t peak_rss_kb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);  // Linux reports KiB
}

}  // namespace tinyadc::serve
