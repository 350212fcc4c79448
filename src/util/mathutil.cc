#include "util/mathutil.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace classminer::util {

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mean) * (v - mean);
  return acc / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  return std::sqrt(Variance(values));
}

double Entropy(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double w : weights) {
    if (w <= 0.0) continue;
    const double p = w / total;
    h -= p * std::log(p);
  }
  return h;
}

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

double FastEntropyThreshold(std::span<const double> values, int bins) {
  if (values.empty()) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) return lo;
  if (bins < 2) bins = 2;

  std::vector<double> hist(static_cast<size_t>(bins), 0.0);
  const double width = (hi - lo) / bins;
  for (double v : values) {
    int b = static_cast<int>((v - lo) / width);
    b = std::min(b, bins - 1);
    hist[static_cast<size_t>(b)] += 1.0;
  }

  // For each split point s (class A = buckets [0,s], class B = (s, bins)),
  // compute H(A) + H(B) over the within-class normalised distributions and
  // keep the first maximising split. Only non-empty buckets add terms, so
  // a split at an empty bucket partitions them as the split before it
  // does: it scores the same and never replaces the best, so only splits
  // at non-empty buckets are scored.
  const double total = static_cast<double>(values.size());
  std::vector<int> occupied;
  double max_count = 0.0;
  for (int b = 0; b < bins; ++b) {
    const double c = hist[static_cast<size_t>(b)];
    if (c > 0.0) {
      occupied.push_back(b);
      max_count = std::max(max_count, c);
    }
  }
  // p * log(p) with p = count / mass, evaluated once per (count, mass)
  // pair by the expression each term used; counts and masses are whole
  // numbers up to values.size(), and NaN marks an entry not yet filled.
  // Very large inputs skip the table and evaluate every term.
  constexpr size_t kMaxTable = size_t{1} << 16;
  const size_t stride = values.size() + 1;
  const size_t table_size = (static_cast<size_t>(max_count) + 1) * stride;
  std::vector<double> table(table_size <= kMaxTable ? table_size : 0,
                            std::numeric_limits<double>::quiet_NaN());
  auto plogp = [&](double c, double mass) {
    const size_t key =
        static_cast<size_t>(c) * stride + static_cast<size_t>(mass);
    if (key < table.size() && !std::isnan(table[key])) return table[key];
    const double p = c / mass;
    const double t = p * std::log(p);
    if (key < table.size()) table[key] = t;
    return t;
  };

  double best_score = -1.0;
  int best_split = bins / 2;
  double mass_a = 0.0;  // whole numbers, so every sum is exact
  for (size_t k = 0; k < occupied.size(); ++k) {
    const int s = occupied[k];
    if (s >= bins - 1) break;
    mass_a += hist[static_cast<size_t>(s)];
    const double mass_b = total - mass_a;
    if (mass_b <= 0.0) continue;
    double ha = 0.0, hb = 0.0;
    for (size_t j = 0; j <= k; ++j) {
      ha -= plogp(hist[static_cast<size_t>(occupied[j])], mass_a);
    }
    for (size_t j = k + 1; j < occupied.size(); ++j) {
      hb -= plogp(hist[static_cast<size_t>(occupied[j])], mass_b);
    }
    const double score = ha + hb;
    if (score > best_score) {
      best_score = score;
      best_split = s;
    }
  }
  return lo + width * (best_split + 1);
}

double OtsuThreshold(std::span<const double> values, int bins) {
  if (values.empty()) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) return lo;
  if (bins < 2) bins = 2;

  std::vector<double> hist(static_cast<size_t>(bins), 0.0);
  std::vector<double> sums(static_cast<size_t>(bins), 0.0);
  const double width = (hi - lo) / bins;
  for (double v : values) {
    int b = static_cast<int>((v - lo) / width);
    b = std::min(b, bins - 1);
    hist[static_cast<size_t>(b)] += 1.0;
    sums[static_cast<size_t>(b)] += v;
  }
  const double total = static_cast<double>(values.size());
  double total_sum = 0.0;
  for (double s : sums) total_sum += s;

  double best_score = -1.0;
  int best_split = bins / 2;
  double w0 = 0.0, sum0 = 0.0;
  for (int s = 0; s < bins - 1; ++s) {
    w0 += hist[static_cast<size_t>(s)];
    sum0 += sums[static_cast<size_t>(s)];
    const double w1 = total - w0;
    if (w0 <= 0.0 || w1 <= 0.0) continue;
    const double mu0 = sum0 / w0;
    const double mu1 = (total_sum - sum0) / w1;
    const double score = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
    if (score > best_score) {
      best_score = score;
      best_split = s;
    }
  }
  return lo + width * (best_split + 1);
}

double Median(std::span<const double> values) {
  return Percentile(values, 50.0);
}

double Percentile(std::span<const double> values, double pct) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = Clamp(pct, 0.0, 100.0) / 100.0 *
                      (static_cast<double>(sorted.size()) - 1.0);
  const size_t idx = static_cast<size_t>(rank + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace classminer::util
