#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace bytecard {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  BC_DCHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  BC_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (has_gauss_) {
    has_gauss_ = false;
    return gauss_cache_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  gauss_cache_ = r * std::sin(theta);
  has_gauss_ = true;
  return r * std::cos(theta);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd3f1e2c4b5a69788ULL); }

ZipfDistribution::ZipfDistribution(uint64_t n, double skew) : n_(n) {
  BC_CHECK(n > 0 && n <= UINT32_MAX);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;

  uint64_t size = 1;
  while (size < n) size <<= 1;
  guide_.resize(size);
  const double inv_size = 1.0 / static_cast<double>(size);
  uint64_t k = 0;
  for (uint64_t j = 0; j < size; ++j) {
    const double bound = static_cast<double>(j) * inv_size;
    while (k + 1 < n && cdf_[k] < bound) ++k;
    guide_[j] = static_cast<uint32_t>(k);
  }
}

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  uint64_t k =
      guide_[static_cast<size_t>(u * static_cast<double>(guide_.size()))];
  while (k + 1 < n_ && cdf_[k] < u) ++k;
  return k;
}

}  // namespace bytecard
