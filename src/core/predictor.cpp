#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::mgmt {

std::unique_ptr<DemandPredictor>
LastValuePredictor::clone() const
{
    return std::make_unique<LastValuePredictor>();
}

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha)
{
    if (alpha <= 0.0 || alpha > 1.0)
        sim::fatal("EwmaPredictor: alpha %g outside (0, 1]", alpha);
}

void
EwmaPredictor::observe(double value)
{
    if (!seeded_) {
        value_ = value;
        seeded_ = true;
    } else {
        value_ = alpha_ * value + (1.0 - alpha_) * value_;
    }
}

std::unique_ptr<DemandPredictor>
EwmaPredictor::clone() const
{
    return std::make_unique<EwmaPredictor>(alpha_);
}

WindowMaxPredictor::WindowMaxPredictor(std::size_t window) : values_(window)
{
    if (window == 0 || window > RingWindow::kCapacity)
        sim::fatal("WindowMaxPredictor: window must be in [1, %zu], got %zu",
                   RingWindow::kCapacity, window);
}

void
WindowMaxPredictor::observe(double value)
{
    values_.push(value);
}

double
WindowMaxPredictor::predict() const
{
    if (values_.size() == 0)
        return 0.0;
    // Oldest-first with a strict '<': among equal maxima (0.0 and -0.0)
    // the oldest wins, wherever the ring happens to start.
    bool first = true;
    double best = 0.0;
    values_.forEach([&](double v) {
        if (first || best < v)
            best = v;
        first = false;
    });
    return best;
}

std::unique_ptr<DemandPredictor>
WindowMaxPredictor::clone() const
{
    return std::make_unique<WindowMaxPredictor>(values_.window());
}

LinearTrendPredictor::LinearTrendPredictor(std::size_t window)
    : values_(window)
{
    if (window < 2 || window > RingWindow::kCapacity)
        sim::fatal("LinearTrendPredictor: window must be in [2, %zu], got "
                   "%zu", RingWindow::kCapacity, window);
}

void
LinearTrendPredictor::observe(double value)
{
    values_.push(value);
}

double
LinearTrendPredictor::predict() const
{
    const std::size_t n = values_.size();
    if (n == 0)
        return 0.0;
    if (n == 1)
        return values_.newest();

    // Least squares of value against index; forecast one step past the end.
    const double nn = static_cast<double>(n);
    double sum_x = 0.0, sum_y = 0.0, sum_xy = 0.0, sum_xx = 0.0;
    double x = 0.0;
    values_.forEach([&](double y) {
        sum_x += x;
        sum_y += y;
        sum_xy += x * y;
        sum_xx += x * x;
        x += 1.0;
    });
    const double denom = nn * sum_xx - sum_x * sum_x;
    if (denom == 0.0)
        return values_.newest();
    const double slope = (nn * sum_xy - sum_x * sum_y) / denom;
    const double intercept = (sum_y - slope * sum_x) / nn;
    return std::max(0.0, intercept + slope * nn);
}

std::unique_ptr<DemandPredictor>
LinearTrendPredictor::clone() const
{
    return std::make_unique<LinearTrendPredictor>(values_.window());
}

PeriodicProfilePredictor::PeriodicProfilePredictor(
    std::size_t slots_per_period, double alpha,
    std::size_t lookahead_slots)
    : alpha_(alpha), lookahead_(lookahead_slots),
      profile_(slots_per_period, 0.0)
{
    if (slots_per_period < 2)
        sim::fatal("PeriodicProfilePredictor: need >= 2 slots, got %zu",
                   slots_per_period);
    if (alpha <= 0.0 || alpha > 1.0)
        sim::fatal("PeriodicProfilePredictor: alpha %g outside (0, 1]",
                   alpha);
    if (lookahead_slots < 1)
        sim::fatal("PeriodicProfilePredictor: look-ahead must be >= 1");
}

void
PeriodicProfilePredictor::observe(double value)
{
    const std::size_t slot = count_ % profile_.size();
    if (count_ < profile_.size()) {
        profile_[slot] = value; // first revolution seeds the profile
    } else {
        profile_[slot] = alpha_ * value + (1.0 - alpha_) * profile_[slot];
    }
    last_ = value;
    ++count_;
}

double
PeriodicProfilePredictor::predict() const
{
    if (!profileComplete())
        return last_;

    // Max of the learned profile over the upcoming slots, floored by the
    // freshest observation so a today-only anomaly is never forecast away.
    double forecast = last_;
    for (std::size_t ahead = 0; ahead < lookahead_; ++ahead) {
        const std::size_t slot = (count_ + ahead) % profile_.size();
        forecast = std::max(forecast, profile_[slot]);
    }
    return forecast;
}

std::unique_ptr<DemandPredictor>
PeriodicProfilePredictor::clone() const
{
    return std::make_unique<PeriodicProfilePredictor>(profile_.size(),
                                                      alpha_, lookahead_);
}

// Checkpoint-capture appends: every mutable member, fixed order, flags
// as 0/1 doubles. Comparisons are byte-wise, so ordering is part of the
// vpm-ckpt-1 contract (DESIGN.md).

void
LastValuePredictor::appendState(std::vector<double> &out) const
{
    out.push_back(last_);
}

void
EwmaPredictor::appendState(std::vector<double> &out) const
{
    out.push_back(value_);
    out.push_back(seeded_ ? 1.0 : 0.0);
}

void
WindowMaxPredictor::appendState(std::vector<double> &out) const
{
    values_.appendState(out);
}

void
LinearTrendPredictor::appendState(std::vector<double> &out) const
{
    values_.appendState(out);
}

void
PeriodicProfilePredictor::appendState(std::vector<double> &out) const
{
    out.push_back(static_cast<double>(count_));
    out.push_back(last_);
    out.insert(out.end(), profile_.begin(), profile_.end());
}

const char *
toString(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::LastValue:
        return "last-value";
      case PredictorKind::Ewma:
        return "ewma";
      case PredictorKind::WindowMax:
        return "window-max";
      case PredictorKind::LinearTrend:
        return "linear-trend";
      case PredictorKind::PeriodicProfile:
        return "periodic-profile";
    }
    sim::panic("toString: invalid PredictorKind %d", static_cast<int>(kind));
}

std::unique_ptr<DemandPredictor>
makePredictor(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::LastValue:
        return std::make_unique<LastValuePredictor>();
      case PredictorKind::Ewma:
        return std::make_unique<EwmaPredictor>();
      case PredictorKind::WindowMax:
        return std::make_unique<WindowMaxPredictor>();
      case PredictorKind::LinearTrend:
        return std::make_unique<LinearTrendPredictor>();
      case PredictorKind::PeriodicProfile:
        // Default geometry: a 24 h day of 5-minute management cycles.
        return std::make_unique<PeriodicProfilePredictor>(288);
    }
    sim::panic("makePredictor: invalid PredictorKind %d",
               static_cast<int>(kind));
}

ForecastTracker::ForecastTracker(std::string predictor_name)
    : name_(std::move(predictor_name))
{
}

void
ForecastTracker::observe(std::int64_t t_us, double actual,
                         double next_forecast)
{
    PROF_ZONE("predictor.track");
    if (hasPending_) {
        ++samples_;
        absErrorSum_ += std::abs(pendingForecast_ - actual);
        errorSum_ += pendingForecast_ - actual;
        telemetry::Telemetry &tel = telemetry::global();
        tel.journal().forecast(t_us, name_, pendingForecast_, actual);
        // Per-cycle |error| history: one shared series across trackers, so
        // the watchdog can alarm on forecast quality regardless of which
        // predictor the policy runs.
        telemetry::TimeSeriesStore &store = tel.timeseries();
        if (store.enabled())
            store.record(store.seriesId("forecast.abs_error"), t_us,
                         std::abs(pendingForecast_ - actual));
    }
    pendingForecast_ = next_forecast;
    hasPending_ = true;
}

double
ForecastTracker::meanAbsoluteError() const
{
    return samples_ > 0 ? absErrorSum_ / double(samples_) : 0.0;
}

double
ForecastTracker::meanError() const
{
    return samples_ > 0 ? errorSum_ / double(samples_) : 0.0;
}

} // namespace vpm::mgmt
