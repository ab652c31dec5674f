/**
 * @file
 * Running scalar summaries (Welford) and time-weighted averages.
 */

#ifndef VPM_STATS_SUMMARY_HPP
#define VPM_STATS_SUMMARY_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "simcore/sim_time.hpp"

namespace vpm::stats {

/**
 * Exact percentile of a small sample set by linear interpolation between
 * closest ranks (numpy's default): rank = fraction * (n - 1), the result
 * interpolates between the two samples bracketing that rank. Unlike the
 * bucketed Histogram percentiles this is exact, which is what the bench
 * harness needs for its median-of-N wall-clock numbers.
 *
 * @param samples Sample set; taken by value because it must be sorted.
 * @param fraction In [0, 1] (clamped): 0 returns the minimum, 1 the
 *        maximum, 0.5 the median. Returns 0 for an empty set; a single
 *        sample is every percentile of itself.
 */
double percentileExact(std::vector<double> samples, double fraction);

/** percentileExact(samples, 0.5). */
double medianExact(std::vector<double> samples);

/**
 * Streaming summary of a scalar sample set: count, mean, variance
 * (Welford's online algorithm), min and max. O(1) space.
 */
class Summary
{
  public:
    /** Add one sample. Inline: this is the per-VM-per-tick hot path of
     *  the evaluation sweep, and the call itself costs as much as the
     *  arithmetic. */
    void add(double x)
    {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /** Merge another summary into this one (parallel-combine rule). */
    void merge(const Summary &other);

    /** Back to the empty state (shard-scratch reuse). */
    void reset() { *this = Summary{}; }

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 with fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Time-weighted average of a piecewise-constant signal: the analogue of
 * Summary for signals that hold a value over an interval rather than being
 * sampled at points. Used for "average hosts on", "average utilization".
 */
class TimeWeighted
{
  public:
    /** @param start Time at which the signal begins, with value @p value. */
    explicit TimeWeighted(sim::SimTime start = {}, double value = 0.0);

    /** The signal changed to @p value at time @p t (t must not go back). */
    void update(sim::SimTime t, double value);

    /** Integrate the held value up to @p t without changing it. */
    void finish(sim::SimTime t);

    /** Time-weighted mean over [start, last update]. */
    double average() const;

    /** Integral of the signal (value x seconds). */
    double integralSeconds() const { return weightedSum_; }

    double current() const { return held_; }
    sim::SimTime elapsed() const { return last_ - start_; }

  private:
    sim::SimTime start_;
    sim::SimTime last_;
    double held_;
    double weightedSum_ = 0.0;
};

} // namespace vpm::stats

#endif // VPM_STATS_SUMMARY_HPP
