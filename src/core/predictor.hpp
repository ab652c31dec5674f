/**
 * @file
 * Demand predictors for the management layer.
 *
 * Every management decision — evacuate a host, wake one — is taken against
 * a forecast of near-future demand, because acting on stale demand with
 * slow power states is precisely the failure mode the paper attacks. Four
 * predictors are provided; the A1 ablation compares them. Aggressive
 * predictors (last-value) maximize savings but get caught by bursts;
 * conservative ones (window-max) protect SLA at some energy cost.
 */

#ifndef VPM_CORE_PREDICTOR_HPP
#define VPM_CORE_PREDICTOR_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>
#include <memory>
#include <string>

namespace vpm::mgmt {

/** Online scalar forecaster: feed one observation per management cycle. */
class DemandPredictor
{
  public:
    virtual ~DemandPredictor() = default;

    /** Record the value observed this cycle. */
    virtual void observe(double value) = 0;

    /** Forecast for the next cycle. Defined after >= 1 observation. */
    virtual double predict() const = 0;

    /** Fresh instance of the same kind and configuration. */
    virtual std::unique_ptr<DemandPredictor> clone() const = 0;

    /**
     * Append the predictor's full mutable state to @p out as raw doubles
     * (scalars, then window/profile contents in order, flags as 0/1).
     * Byte-stable: identical observation histories yield identical
     * appends. Replay checkpoints compare these across a deterministically
     * re-executed run; nothing ever loads them back, so the default (no
     * state) is safe for stateless test doubles.
     */
    virtual void appendState(std::vector<double> &out) const
    {
        (void)out;
    }
};

/**
 * The last @c window observations, held inline in a fixed-capacity ring
 * so a per-VM predictor is one small object rather than a deque's map and
 * node on the heap. Visiting and state appends run oldest-first.
 */
class RingWindow
{
  public:
    /** Largest window a ring holds. */
    static constexpr std::size_t kCapacity = 16;

    /** @param window Observations retained, in [1, kCapacity]; the
     *  owning predictor validates it. */
    explicit RingWindow(std::size_t window) : window_(window) {}

    /** Append @p value, dropping the oldest once the window is full. */
    void push(double value)
    {
        values_[next_] = value;
        next_ = next_ + 1 == window_ ? 0 : next_ + 1;
        if (size_ < window_)
            ++size_;
    }

    std::size_t size() const { return size_; }
    std::size_t window() const { return window_; }

    /** The most recent observation; the window must not be empty. */
    double newest() const { return values_[(next_ + window_ - 1) % window_]; }

    /** Call @p f(value) for every held observation, oldest first. */
    template <typename F>
    void forEach(F &&f) const
    {
        // Until the ring wraps the values sit at [0, size) in order; after
        // that the oldest is the slot about to be overwritten.
        const std::size_t oldest = size_ < window_ ? 0 : next_;
        for (std::size_t i = oldest; i < size_; ++i)
            f(values_[i]);
        for (std::size_t i = 0; i < oldest; ++i)
            f(values_[i]);
    }

    /** Checkpoint form: the count, then the values oldest-first. */
    void appendState(std::vector<double> &out) const
    {
        out.push_back(static_cast<double>(size_));
        forEach([&out](double v) { out.push_back(v); });
    }

  private:
    std::size_t window_;
    std::size_t next_ = 0;
    std::size_t size_ = 0;
    std::array<double, kCapacity> values_{};
};

/** Naive persistence: tomorrow looks exactly like right now. */
class LastValuePredictor final : public DemandPredictor
{
  public:
    void observe(double value) override { last_ = value; }
    double predict() const override { return last_; }
    std::unique_ptr<DemandPredictor> clone() const override;
    void appendState(std::vector<double> &out) const override;

  private:
    double last_ = 0.0;
};

/** Exponentially weighted moving average. */
class EwmaPredictor final : public DemandPredictor
{
  public:
    /** @param alpha Weight of the newest sample, in (0, 1]. */
    explicit EwmaPredictor(double alpha = 0.3);

    void observe(double value) override;
    double predict() const override { return value_; }
    std::unique_ptr<DemandPredictor> clone() const override;
    void appendState(std::vector<double> &out) const override;

  private:
    double alpha_;
    double value_ = 0.0;
    bool seeded_ = false;
};

/**
 * Maximum over a sliding window — the conservative choice: capacity is
 * provisioned for the worst recently seen, so bursts within the window
 * never cause a shortfall.
 */
class WindowMaxPredictor final : public DemandPredictor
{
  public:
    /** @param window Number of recent observations retained, in
     *  [1, RingWindow::kCapacity]. */
    explicit WindowMaxPredictor(std::size_t window = 6);

    void observe(double value) override;
    double predict() const override;
    std::unique_ptr<DemandPredictor> clone() const override;
    void appendState(std::vector<double> &out) const override;

  private:
    RingWindow values_;
};

/**
 * Least-squares linear extrapolation over a sliding window, clamped to be
 * non-negative. Tracks ramps (diurnal morning rise) better than
 * persistence.
 */
class LinearTrendPredictor final : public DemandPredictor
{
  public:
    /** @param window Number of recent observations fitted, in
     *  [2, RingWindow::kCapacity]. */
    explicit LinearTrendPredictor(std::size_t window = 6);

    void observe(double value) override;
    double predict() const override;
    std::unique_ptr<DemandPredictor> clone() const override;
    void appendState(std::vector<double> &out) const override;

  private:
    RingWindow values_;
};

/**
 * Time-of-day profile learner with look-ahead.
 *
 * Enterprise demand repeats daily. This predictor folds observations into
 * a circular per-slot EWMA profile (one slot per management cycle, one
 * revolution per period) and forecasts the *maximum* of the learned
 * profile over the next few slots. Once it has seen a full day it
 * anticipates the morning logon ramp — the proactive-wake behaviour the
 * paper sketches as the natural next step beyond reactive management.
 * Until one full revolution has been observed it behaves like
 * last-value.
 */
class PeriodicProfilePredictor final : public DemandPredictor
{
  public:
    /**
     * @param slots_per_period Cycles per repetition period (e.g. 288 for
     *        a 24 h day at 5 min cycles). Must be >= 2.
     * @param alpha Per-slot EWMA weight in (0, 1].
     * @param lookahead_slots How far ahead the forecast peeks (>= 1).
     */
    explicit PeriodicProfilePredictor(std::size_t slots_per_period,
                                      double alpha = 0.3,
                                      std::size_t lookahead_slots = 3);

    void observe(double value) override;
    double predict() const override;
    std::unique_ptr<DemandPredictor> clone() const override;
    void appendState(std::vector<double> &out) const override;

    /** true once a full period has been observed (profile is trusted). */
    bool profileComplete() const { return count_ >= profile_.size(); }

  private:
    double alpha_;
    std::size_t lookahead_;
    std::vector<double> profile_;
    std::size_t count_ = 0;
    double last_ = 0.0;
};

/** Predictor families selectable by policy configuration. */
enum class PredictorKind
{
    LastValue,
    Ewma,
    WindowMax,
    LinearTrend,
    PeriodicProfile,
};

/** Human-readable name for tables. */
const char *toString(PredictorKind kind);

/** Factory with each family's default parameters. */
std::unique_ptr<DemandPredictor> makePredictor(PredictorKind kind);

/**
 * Forecast-quality bookkeeping around a DemandPredictor.
 *
 * Each cycle the owner reports the demand actually observed together with
 * the forecast just produced for the NEXT cycle; the tracker compares the
 * previous cycle's forecast against the new actual, journals the pair as a
 * telemetry Forecast event, and keeps running error statistics. This is
 * how "the predictor said X, reality said Y" becomes visible in traces
 * without every predictor knowing about telemetry.
 */
class ForecastTracker
{
  public:
    /** @param predictor_name Label journaled with every pair. */
    explicit ForecastTracker(std::string predictor_name);

    /**
     * Report this cycle's observed demand and the forecast for the next
     * cycle. The first call only seeds (there is no prior forecast yet).
     */
    void observe(std::int64_t t_us, double actual, double next_forecast);

    /** Forecast/actual pairs scored so far. */
    std::uint64_t samples() const { return samples_; }

    /** Mean |forecast - actual|; 0 before any pair completes. */
    double meanAbsoluteError() const;

    /** Mean (forecast - actual); positive = over-provisioning bias. */
    double meanError() const;

  private:
    std::string name_;
    double pendingForecast_ = 0.0;
    bool hasPending_ = false;
    std::uint64_t samples_ = 0;
    double absErrorSum_ = 0.0;
    double errorSum_ = 0.0;
};

} // namespace vpm::mgmt

#endif // VPM_CORE_PREDICTOR_HPP
