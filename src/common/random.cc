#include "common/random.h"

#include <cmath>

namespace pardb {

namespace {

double Zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  assert(theta >= 0.0 && theta < 1.0);
  zetan_ = Zeta(n_, theta_);
  zeta2theta_ = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  half_pow_theta_ = std::pow(0.5, theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfianGenerator::Next(Rng& rng) {
  if (theta_ == 0.0) return rng.Uniform(n_);
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const std::uint64_t rank = static_cast<std::uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

}  // namespace pardb
