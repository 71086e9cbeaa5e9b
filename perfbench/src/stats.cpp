#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t index = rank_index(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

double tail_quantile(std::size_t n) {
  for (const double q : {0.99, 0.9})
    if (samples_beyond(n, q) >= 10) return q;
  return 1.0;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string inference_digest(cfs::JsonValue report_json) {
  if (report_json.is_object()) report_json.as_object().erase("metrics");
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(report_json.dump())));
  return hex;
}

}  // namespace perfbench
