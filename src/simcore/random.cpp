#include "simcore/random.hpp"

#include <cmath>

#include "simcore/logging.hpp"

namespace vpm::sim {

namespace {

/** SplitMix64 step: used only for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed so that nearby seeds give unrelated streams, and so
    // the all-zero state (a fixed point of xoshiro) is unreachable.
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

Rng
Rng::fork()
{
    return Rng(next());
}

double
Rng::uniform01()
{
    // 53 random bits into the mantissa: uniform on [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    if (lo > hi)
        panic("Rng::uniform: lo (%g) > hi (%g)", lo, hi);
    return lo + (hi - lo) * uniform01();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo (%lld) > hi (%lld)",
              static_cast<long long>(lo), static_cast<long long>(hi));
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range requested
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~0ull / span) * span;
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    // Box–Muller; draw order is fixed so streams replay exactly.
    double u1;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    const double u2 = uniform01();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = radius * std::sin(theta);
    hasSpareNormal_ = true;
    return radius * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic("Rng::exponential: mean must be positive, got %g", mean);
    double u;
    do {
        u = uniform01();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform01() < p;
}

std::uint64_t
hashMix(std::uint64_t seed, std::uint64_t index)
{
    // Two rounds of SplitMix64 finalization over the combined input.
    std::uint64_t x = seed ^ (index * 0x9E3779B97F4A7C15ull);
    x = splitmix64(x);
    return splitmix64(x);
}

double
hashedUniform01(std::uint64_t seed, std::uint64_t index)
{
    return static_cast<double>(hashMix(seed, index) >> 11) * 0x1.0p-53;
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
hashedNormal(std::uint64_t seed, std::uint64_t index)
{
    // Box–Muller from two decorrelated uniforms at the same index.
    double u1 = hashedUniform01(seed, index);
    const double u2 = hashedUniform01(seed ^ 0xD1B54A32D192ED03ull, index);
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

} // namespace vpm::sim
