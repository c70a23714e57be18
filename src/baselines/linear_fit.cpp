#include "baselines/linear_fit.hpp"

#include <cmath>
#include <stdexcept>

namespace metadse::baselines {

std::vector<double> least_squares(const std::vector<std::vector<double>>& a,
                                  const std::vector<double>& b,
                                  double lambda) {
  if (a.empty() || a.size() != b.size()) {
    throw std::invalid_argument("least_squares: bad system size");
  }
  const size_t n = a.size();
  const size_t k = a.front().size();
  if (k == 0) throw std::invalid_argument("least_squares: empty rows");
  for (const auto& row : a) {
    if (row.size() != k) throw std::invalid_argument("least_squares: ragged A");
  }
  // Normal equations: (A^T A + lambda I) w = A^T b.
  std::vector<std::vector<double>> m(k);
  for (auto& row : m) row.assign(k + 1, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      double s = 0.0;
      for (size_t r = 0; r < n; ++r) s += a[r][i] * a[r][j];
      m[i][j] = s + (i == j ? lambda : 0.0);
    }
    double s = 0.0;
    for (size_t r = 0; r < n; ++r) s += a[r][i] * b[r];
    m[i][k] = s;
  }
  // Gaussian elimination with partial pivoting.
  for (size_t col = 0; col < k; ++col) {
    size_t piv = col;
    for (size_t r = col + 1; r < k; ++r) {
      if (std::fabs(m[r][col]) > std::fabs(m[piv][col])) piv = r;
    }
    if (std::fabs(m[piv][col]) < 1e-14) {
      throw std::runtime_error("least_squares: singular system");
    }
    std::swap(m[piv], m[col]);
    for (size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (size_t c = col; c <= k; ++c) m[r][c] -= f * m[col][c];
    }
  }
  std::vector<double> w(k);
  for (size_t i = 0; i < k; ++i) w[i] = m[i][k] / m[i][i];
  return w;
}

LinearFit::LinearFit(LinearFitOptions options) : options_(options) {}

void LinearFit::fit_sources(const std::vector<data::Dataset>& sources,
                            data::TargetMetric target) {
  if (sources.empty()) {
    throw std::invalid_argument("LinearFit: no source datasets");
  }
  if (target == data::TargetMetric::kBoth) {
    throw std::invalid_argument("LinearFit: single-metric models only");
  }
  source_models_.clear();
  source_names_.clear();
  for (const auto& src : sources) {
    FeatureMatrix x;
    std::vector<float> y;
    x.reserve(src.size());
    y.reserve(src.size());
    for (const auto& s : src.samples) {
      x.push_back(s.features);
      y.push_back(data::target_of(s, target).front());
    }
    Gbrt model(options_.source_model);
    model.fit(x, y);
    source_models_.push_back(std::move(model));
    source_names_.push_back(src.workload);
  }
}

void LinearFit::adapt(const data::Dataset& target_support,
                      data::TargetMetric target) {
  if (source_models_.empty()) {
    throw std::logic_error("LinearFit: fit_sources first");
  }
  if (target_support.empty()) {
    throw std::invalid_argument("LinearFit: empty target support");
  }
  const size_t k = source_models_.size();
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  for (const auto& s : target_support.samples) {
    std::vector<double> row(k + 1, 1.0);  // intercept in the last column
    for (size_t m = 0; m < k; ++m) {
      row[m] = source_models_[m].predict(s.features);
    }
    a.push_back(std::move(row));
    b.push_back(data::target_of(s, target).front());
  }
  coef_ = least_squares(a, b, options_.ridge);
}

float LinearFit::predict(const std::vector<float>& features) const {
  if (coef_.empty()) throw std::logic_error("LinearFit: adapt first");
  double y = coef_.back();  // intercept
  for (size_t m = 0; m < source_models_.size(); ++m) {
    y += coef_[m] * source_models_[m].predict(features);
  }
  return static_cast<float>(y);
}

std::vector<float> LinearFit::predict_batch(const FeatureMatrix& x) const {
  std::vector<float> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(predict(row));
  return out;
}

}  // namespace metadse::baselines
