#include "stats/ndv_classic.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace bytecard::stats {

SampleFrequencies ComputeFrequencies(const std::vector<int64_t>& sample,
                                     int64_t population_size) {
  SampleFrequencies out;
  out.sample_size = static_cast<int64_t>(sample.size());
  out.population_size = population_size;

  std::unordered_map<int64_t, int64_t> counts;
  counts.reserve(sample.size());
  for (int64_t v : sample) ++counts[v];

  for (const auto& [_, c] : counts) {
    if (static_cast<int64_t>(out.freq.size()) < c) out.freq.resize(c, 0);
    ++out.freq[c - 1];
  }
  return out;
}

double GeeEstimate(const SampleFrequencies& s) {
  const double d = static_cast<double>(s.sample_distinct());
  if (s.sample_size == 0) return 0.0;
  const double f1 = s.freq.empty() ? 0.0 : static_cast<double>(s.freq[0]);
  const double ratio = static_cast<double>(s.population_size) /
                       static_cast<double>(s.sample_size);
  return d - f1 + std::sqrt(std::max(1.0, ratio)) * f1;
}

}  // namespace bytecard::stats
