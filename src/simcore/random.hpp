/**
 * @file
 * Deterministic random-number generation for simulations.
 *
 * The engine is xoshiro256** seeded via SplitMix64, which gives high-quality
 * streams with tiny state and — crucially for reproducible experiments —
 * well-defined behaviour across platforms, unlike std::default_random_engine.
 * Each simulated entity (VM trace, failure injector, ...) should own its own
 * Rng, forked from a parent via fork(), so adding an entity does not perturb
 * the streams of the others.
 */

#ifndef VPM_SIMCORE_RANDOM_HPP
#define VPM_SIMCORE_RANDOM_HPP

#include <array>
#include <cstddef>
#include <cstdint>

namespace vpm::sim {

/**
 * Deterministic pseudo-random generator (xoshiro256**).
 *
 * Satisfies the essentials of UniformRandomBitGenerator so it can also be
 * used with <random> distributions if ever needed, but the common
 * distributions are provided as members to keep results platform-stable.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()() { return next(); }

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Create an independent child stream.
     *
     * The child is seeded from this stream's output, so forking N children
     * yields N decorrelated streams while consuming exactly N draws from the
     * parent.
     */
    Rng fork();

    /** Uniform double in [0, 1). */
    double uniform01();

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal (Box–Muller, deterministic draw order). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential with the given mean (mean = 1/lambda). Mean must be > 0. */
    double exponential(double mean);

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** @name Checkpoint capture (read-only)
     *
     * The raw engine words plus the buffered Box–Muller spare are the
     * generator's complete reproducibility state; replay checkpoints
     * record them to prove a re-executed run reached the same stream
     * position. There is deliberately no setter: restore re-executes the
     * prefix instead of poking state (DESIGN.md "Replay & checkpointing").
     */
    ///@{
    const std::array<std::uint64_t, 4> &state() const { return state_; }
    bool hasSpareNormal() const { return hasSpareNormal_; }
    double spareNormal() const { return spareNormal_; }
    ///@}

  private:
    std::array<std::uint64_t, 4> state_;
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/** @name Stateless (counter-based) noise
 *
 * Hash a (seed, index) pair to a random value. Unlike a sequential stream,
 * the value at index i can be queried in any order and any number of times —
 * which is what time-indexed workload traces need to stay deterministic
 * under out-of-order queries.
 */
///@{

/** Mix two 64-bit values into a well-distributed 64-bit hash. */
std::uint64_t hashMix(std::uint64_t seed, std::uint64_t index);

/** Uniform double in [0, 1) determined by (seed, index). */
double hashedUniform01(std::uint64_t seed, std::uint64_t index);

/** Standard-normal double determined by (seed, index). */
double hashedNormal(std::uint64_t seed, std::uint64_t index);

///@}

/** FNV-1a over @p n bytes at @p data, continuing from @p seed (the 64-bit
 *  offset basis by default). The project's one content hash: checkpoint
 *  trailers, replay state digests and sweep manifest fingerprints. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = 14695981039346656037ull);

} // namespace vpm::sim

#endif // VPM_SIMCORE_RANDOM_HPP
