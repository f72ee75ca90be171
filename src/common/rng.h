#ifndef BYTECARD_COMMON_RNG_H_
#define BYTECARD_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bytecard {

// Deterministic 64-bit RNG (splitmix64-seeded xoshiro256**). Every data
// generator and training routine in the repository takes an explicit seed so
// that benchmark rows are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(Uniform(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_gauss_ = false;
  double gauss_cache_ = 0.0;
};

// Samples from {0, .., n-1} with Zipf(skew) popularity: P(k) ~ 1/(k+1)^skew.
// Precomputes the CDF and a guide table once. Sample() draws a uniform u and
// returns the first k with cdf[k] >= u (n - 1 if there is none), in O(1)
// expected steps.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double skew);

  uint64_t Sample(Rng* rng) const;
  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
  // guide_[j] is the first k with cdf_[k] >= j / guide_.size() (n - 1 if
  // there is none). The size is the least power of two >= n, which makes
  // u * size and j / size exact: the search for u starts at guide_[j] for
  // j = floor(u * size), never past the answer, and steps over fewer than
  // two CDF entries on average.
  std::vector<uint32_t> guide_;
};

}  // namespace bytecard

#endif  // BYTECARD_COMMON_RNG_H_
