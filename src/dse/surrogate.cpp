#include "dse/surrogate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/errors.h"

namespace phls::dse {

namespace {

/// Guard below which a feature column counts as constant and is left
/// unscaled (its centred values are ~0, so its weight is killed by the
/// ridge instead of blowing up under a ~0 divisor).
constexpr double scale_floor = 1e-12;

bool finite(double v) { return std::isfinite(v); }

} // namespace

// ---------------------------------------------------------------- model

linear_model::linear_model(std::size_t dim, double lambda, double prior_sd)
    : dim_(dim), lambda_(lambda), prior_sd_(prior_sd), sx_(dim, 0.0),
      sxx_(dim * dim, 0.0), sxy_(dim, 0.0)
{
    check(dim_ >= 1, "linear_model needs at least one feature");
    check(lambda_ > 0.0, "linear_model ridge strength must be > 0");
    check(prior_sd_ >= 0.0 && finite(prior_sd_),
          "linear_model prior_sd must be finite and >= 0");
}

void linear_model::observe(const std::vector<double>& x, double y)
{
    check(x.size() == dim_, "linear_model row has the wrong feature count");
    for (const double v : x)
        check(finite(v), "linear_model rejects non-finite feature values");
    check(finite(y), "linear_model rejects non-finite target values");
    ++n_;
    for (std::size_t i = 0; i < dim_; ++i) {
        sx_[i] += x[i];
        sxy_[i] += x[i] * y;
        for (std::size_t j = 0; j < dim_; ++j) sxx_[i * dim_ + j] += x[i] * x[j];
    }
    sy_ += y;
    syy_ += y * y;
    dirty_ = true;
}

/// Rebuilds the standardised ridge fit from the raw moments: centre and
/// scale analytically (C = Σxxᵀ - n μμᵀ, s_i = sqrt(C_ii / n)), solve
/// (Ã + λnI) w̃ = b̃ by Cholesky.  Identical to batch-fitting the same
/// rows, whatever order they arrived in.
void linear_model::refit() const
{
    dirty_ = false;
    const double n = static_cast<double>(n_);
    mean_.assign(dim_, 0.0);
    scale_.assign(dim_, 1.0);
    w_.assign(dim_, 0.0);
    chol_.assign(dim_ * dim_, 0.0);
    ybar_ = n_ > 0 ? sy_ / n : 0.0;
    sigma2_ = 0.0;
    if (n_ == 0) return;

    for (std::size_t i = 0; i < dim_; ++i) mean_[i] = sx_[i] / n;
    std::vector<double> cov(dim_ * dim_, 0.0); // centred Gram C
    for (std::size_t i = 0; i < dim_; ++i)
        for (std::size_t j = 0; j < dim_; ++j)
            cov[i * dim_ + j] = sxx_[i * dim_ + j] - n * mean_[i] * mean_[j];
    for (std::size_t i = 0; i < dim_; ++i) {
        const double var = std::max(0.0, cov[i * dim_ + i] / n);
        const double s = std::sqrt(var);
        scale_[i] = s > scale_floor ? s : 1.0;
    }

    // Standardised normal equations with the ridge on the diagonal.
    std::vector<double> a(dim_ * dim_, 0.0);
    std::vector<double> b(dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
        for (std::size_t j = 0; j < dim_; ++j)
            a[i * dim_ + j] = cov[i * dim_ + j] / (scale_[i] * scale_[j]);
        a[i * dim_ + i] += lambda_ * n;
        b[i] = (sxy_[i] - mean_[i] * sy_) / scale_[i];
    }

    // Cholesky a = L Lᵀ; the ridge keeps `a` positive definite.
    for (std::size_t i = 0; i < dim_; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a[i * dim_ + j];
            for (std::size_t k = 0; k < j; ++k)
                sum -= chol_[i * dim_ + k] * chol_[j * dim_ + k];
            if (i == j)
                chol_[i * dim_ + i] = std::sqrt(std::max(sum, scale_floor));
            else
                chol_[i * dim_ + j] = sum / chol_[j * dim_ + j];
        }
    }
    // Solve L z = b, then Lᵀ w = z.
    std::vector<double> z(dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k) sum -= chol_[i * dim_ + k] * z[k];
        z[i] = sum / chol_[i * dim_ + i];
    }
    for (std::size_t ii = dim_; ii-- > 0;) {
        double sum = z[ii];
        for (std::size_t k = ii + 1; k < dim_; ++k)
            sum -= chol_[k * dim_ + ii] * w_[k];
        w_[ii] = sum / chol_[ii * dim_ + ii];
    }

    // Residual variance from the moments: RSS = Sỹỹ - w̃·b̃ with
    // Sỹỹ = Σy² - n ȳ², degrees of freedom n - dim - 1 (clamped).
    const double syy_centred = std::max(0.0, syy_ - n * ybar_ * ybar_);
    double fit = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) fit += w_[i] * b[i];
    const double rss = std::max(0.0, syy_centred - fit);
    const double dof =
        std::max(1.0, n - static_cast<double>(dim_) - 1.0);
    sigma2_ = rss / dof;
    // A perfect (or degenerate all-equal-target) fit still carries
    // parameter uncertainty ~ var(y)/n — without this floor, RSS = 0
    // would zero the band and leverage could no longer widen it.
    var_floor_ = std::max(syy_centred / n, prior_sd_ * prior_sd_) / n;
}

prediction linear_model::predict(const std::vector<double>& x) const
{
    check(x.size() == dim_, "linear_model query has the wrong feature count");
    prediction p;
    if (n_ == 0) {
        p.sigma = std::numeric_limits<double>::infinity();
        return p;
    }
    if (dirty_) refit();
    std::vector<double> xs(dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
        check(finite(x[i]), "linear_model rejects non-finite feature values");
        xs[i] = (x[i] - mean_[i]) / scale_[i];
    }
    double mean = ybar_;
    for (std::size_t i = 0; i < dim_; ++i) mean += w_[i] * xs[i];
    // Leverage h = x̃ᵀ (Ã + λnI)⁻¹ x̃ via the stored factor: solve
    // L z = x̃ and take |z|².  Points far outside the training cloud get
    // large h and therefore honest, wide sigma bands.
    std::vector<double> z(dim_, 0.0);
    double h = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        double sum = xs[i];
        for (std::size_t k = 0; k < i; ++k) sum -= chol_[i * dim_ + k] * z[k];
        z[i] = sum / chol_[i * dim_ + i];
        h += z[i] * z[i];
    }
    p.mean = mean;
    p.sigma = std::sqrt(std::max(sigma2_, var_floor_) * (1.0 + h)) +
              1e-9 * (1.0 + std::abs(mean));
    return p;
}

std::vector<double> linear_model::weights() const
{
    if (dirty_) refit();
    return w_;
}

double linear_model::residual_rms() const
{
    if (dirty_) refit();
    return std::sqrt(sigma2_);
}

// ------------------------------------------------------------ surrogate

namespace {
constexpr std::size_t feature_count = 8;
}

surrogate::surrogate(const module_library& lib, bool with_lifetime,
                     const surrogate_options& opts)
    : opts_(opts), with_lifetime_(with_lifetime),
      // The feasibility target is Bernoulli: its prior floor keeps the
      // band honest even when every row seen so far agrees.
      feasible_(feature_count, opts.ridge, 0.5),
      peak_(feature_count, opts.ridge), area_(feature_count, opts.ridge),
      lifetime_(feature_count, opts.ridge)
{
    check(opts_.min_rows >= 2, "surrogate min_rows must be >= 2");
    double total = 0.0;
    for (const fu_module& m : lib.modules()) {
        power_levels_.push_back(m.power);
        total += m.power;
    }
    std::sort(power_levels_.begin(), power_levels_.end());
    power_levels_.erase(
        std::unique(power_levels_.begin(), power_levels_.end()),
        power_levels_.end());
    // Any cap above the sum of every module's power behaves like "no
    // cap"; clamping there keeps the unbounded_power sentinel (+inf)
    // out of the z-scored feature columns without conflating it with
    // reachable caps.
    cap_ceiling_ = 1.0 + 2.0 * total;
}

std::vector<double> surrogate::features(const synthesis_constraints& c) const
{
    const double t = static_cast<double>(c.latency);
    const double p = std::min(c.max_power, cap_ceiling_);
    const double bucket = static_cast<double>(
        std::upper_bound(power_levels_.begin(), power_levels_.end(), p) -
        power_levels_.begin());
    return {t,
            p,
            std::log1p(std::max(0.0, t)),
            std::log1p(std::max(0.0, p)),
            1.0 / (1.0 + std::max(0.0, t)),
            1.0 / (1.0 + std::max(0.0, p)),
            t * p,
            bucket};
}

void surrogate::train(const metric_record& row)
{
    const std::vector<double> x = features(row.constraints);
    const bool ok = row.st.ok() && row.has_design;
    if (ok) {
        check(finite(row.peak) && finite(row.area),
              "surrogate rejects a feasible training row with non-finite "
              "metrics");
        check(!row.has_lifetime || finite(row.lifetime_seconds),
              "surrogate rejects a training row with a non-finite lifetime");
    }
    feasible_.observe(x, ok ? 1.0 : 0.0);
    ++rows_;
    if (!ok) return;
    peak_.observe(x, row.peak);
    area_.observe(x, row.area);
    ++ok_rows_;
    if (with_lifetime_ && row.has_lifetime) {
        lifetime_.observe(x, row.lifetime_seconds);
        ++lifetime_rows_;
    }
}

bool surrogate::ready() const { return rows_ >= opts_.min_rows; }

estimate surrogate::predict(const synthesis_constraints& c) const
{
    const std::vector<double> x = features(c);
    estimate e;
    e.ready = ready();
    e.feasibility_trained = ok_rows_ > 0 && ok_rows_ < rows_;
    e.feasible = feasible_.predict(x);
    e.metrics_ready = ok_rows_ >= opts_.min_rows &&
                      (!with_lifetime_ || lifetime_rows_ >= opts_.min_rows);
    if (ok_rows_ > 0) {
        e.peak = peak_.predict(x);
        e.area = area_.predict(x);
    }
    if (with_lifetime_ && lifetime_rows_ > 0) e.lifetime = lifetime_.predict(x);
    return e;
}

} // namespace phls::dse
