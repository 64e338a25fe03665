#include "stats/random.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "stats/ziggurat.hpp"

namespace reldiv::stats {

double normal_deviate(rng& r) noexcept {
  // Marsaglia polar method (uncached variant: one deviate per call; the
  // sampling loops that need bulk normals use vector fills elsewhere).
  for (;;) {
    const double u = 2.0 * r.uniform() - 1.0;
    const double v = 2.0 * r.uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

namespace {

/// Uniform double in (0, 1): never 0, so its log is finite.
double open_uniform(rng& r) noexcept {
  return (static_cast<double>(r() >> 11) + 0.5) * 0x1.0p-53;
}

/// The slow path of one ziggurat draw whose fast test failed: `x` is
/// u * x[layer] for the word's u.  Returns the accepted magnitude, or -1
/// when the draw is rejected and a fresh word is needed.
[[gnu::noinline, gnu::cold]] double ziggurat_slow(rng& r, unsigned layer, double x) noexcept {
  using namespace ziggurat;
  if (layer == 0) {
    // Tail beyond kR (Marsaglia 1964): accept kR + a when 2b > a^2, with a
    // and b standard exponentials scaled by 1/kR and 1.
    for (;;) {
      const double a = -std::log(open_uniform(r)) / kR;
      const double b = -std::log(open_uniform(r));
      if (2.0 * b > a * a) return kR + a;
    }
  }
  // Wedge: a uniform height inside the layer, accepted under the curve.
  const double y = kF[layer] + (kF[layer + 1] - kF[layer]) * r.uniform();
  return y < std::exp(-0.5 * x * x) ? x : -1.0;
}

}  // namespace

void fill_normals(rng& r, std::span<double> out) noexcept {
  using ziggurat::kX;
  // Word layout: bits 0-7 pick the layer, bit 8 is the sign, bits 11-63
  // are the uniform; disjoint bits, so the three are independent.  The fast
  // path runs on a local copy of the engine, so its state stays in
  // registers; the rare slow path syncs through `r`.
  rng g = r;
  for (double& dst : out) {
    double mag = 0.0;
    std::uint64_t w = 0;
    for (;;) {
      w = g();
      const auto layer = static_cast<unsigned>(w & 0xff);
      mag = static_cast<double>(static_cast<std::int64_t>(w >> 11)) * 0x1.0p-53 * kX[layer];
      if (mag < kX[layer + 1]) break;
      r = g;
      mag = ziggurat_slow(r, layer, mag);
      g = r;
      if (mag >= 0.0) break;
    }
    dst = std::bit_cast<double>(std::bit_cast<std::uint64_t>(mag) | ((w & 0x100) << 55));
  }
  r = g;
}

double gamma_deviate(rng& r, double shape) {
  if (!(shape > 0.0)) throw std::invalid_argument("gamma_deviate: shape must be > 0");
  if (shape < 1.0) {
    // Boost shape above 1 and correct with the standard power-of-uniform trick.
    const double g = gamma_deviate(r, shape + 1.0);
    const double u = r.uniform();
    return g * std::pow(u <= 0.0 ? 1e-300 : u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000) squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal_deviate(r);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = r.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

double beta_deviate(rng& r, double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) throw std::invalid_argument("beta_deviate: a, b must be > 0");
  const double x = gamma_deviate(r, a);
  const double y = gamma_deviate(r, b);
  const double sum = x + y;
  return sum > 0.0 ? x / sum : 0.5;
}

std::uint64_t binomial_deviate(rng& r, std::uint64_t trials, double p) {
  std::uint64_t count = 0;
  // Split until the remaining problem is small: the a-th order statistic X of
  // n uniforms is Beta(a, n+1-a).  If X <= p, the a smallest uniforms are all
  // below p and each of the other n-a lands below p independently with
  // probability (p-X)/(1-X); if X > p, only the a-1 uniforms below X can be
  // below p, each with probability p/X.
  while (trials > 64) {
    if (p <= 0.0) return count;
    if (p >= 1.0) return count + trials;
    const std::uint64_t a = 1 + trials / 2;
    const double x = beta_deviate(r, static_cast<double>(a),
                                  static_cast<double>(trials + 1 - a));
    if (x <= p) {
      count += a;
      trials -= a;
      p = (p - x) / (1.0 - x);
    } else {
      trials = a - 1;
      p = p / x;
    }
  }
  if (p <= 0.0) return count;
  if (p >= 1.0) return count + trials;
  for (std::uint64_t i = 0; i < trials; ++i) {
    if (r.bernoulli(p)) ++count;
  }
  return count;
}

}  // namespace reldiv::stats
