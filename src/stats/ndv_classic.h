#ifndef BYTECARD_STATS_NDV_CLASSIC_H_
#define BYTECARD_STATS_NDV_CLASSIC_H_

#include <cstdint>
#include <vector>

namespace bytecard::stats {

// Frequency counts of a sample: freq[i] = f_{i+1} = number of distinct
// values occurring exactly i+1 times in the sample. The shared input of the
// sample-scale-up NDV estimator below and of RBX's frequency profile.
struct SampleFrequencies {
  std::vector<int64_t> freq;  // f_1, f_2, ...
  int64_t sample_size = 0;    // n
  int64_t population_size = 0;  // N

  int64_t sample_distinct() const {
    int64_t d = 0;
    for (int64_t f : freq) d += f;
    return d;
  }
};

// Builds frequency counts from raw sampled values.
SampleFrequencies ComputeFrequencies(const std::vector<int64_t>& sample,
                                     int64_t population_size);

// Guaranteed-Error Estimator (Charikar et al. 2000): d + (sqrt(N/n) - 1) f1.
double GeeEstimate(const SampleFrequencies& s);

}  // namespace bytecard::stats

#endif  // BYTECARD_STATS_NDV_CLASSIC_H_
