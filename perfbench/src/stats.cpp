#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double tail_quantile(std::size_t n) {
  constexpr double kCandidates[] = {0.999, 0.99, 0.9, 0.5};
  for (const double q : kCandidates) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = quantile(samples, 0.5);
  s.tail_q = tail_quantile(s.n);
  s.tail = s.tail_q > 0.0 ? quantile(samples, s.tail_q) : 0.0;
  return s;
}

double geomean(const std::vector<double>& ratios) {
  if (ratios.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double r : ratios) log_sum += std::log(r);
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (end <= begin) continue;
    if (open && begin <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = begin;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

std::vector<std::uint64_t> self_times(const std::vector<SpanTime>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> child_intervals(spans.size());
  for (const SpanTime& child : spans) {
    const auto it = index_of.find(child.parent);
    if (child.parent == 0 || it == index_of.end()) continue;
    const SpanTime& parent = spans[it->second];
    const std::uint64_t begin = std::max(child.start_ns, parent.start_ns);
    const std::uint64_t end = std::min(child.start_ns + child.duration_ns,
                                       parent.start_ns + parent.duration_ns);
    if (end > begin) child_intervals[it->second].emplace_back(begin, end);
  }

  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].duration_ns - covered_ns(std::move(child_intervals[i]));
  }
  return out;
}

double unattributed_share(const std::vector<SpanTime>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of.emplace(spans[i].id, i);
  const auto parent_of = [&](std::size_t i) -> std::ptrdiff_t {
    const auto it = spans[i].parent == 0 ? index_of.end() : index_of.find(spans[i].parent);
    return it == index_of.end() ? -1 : static_cast<std::ptrdiff_t>(it->second);
  };

  std::vector<bool> has_child(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (const std::ptrdiff_t p = parent_of(i); p >= 0) has_child[static_cast<std::size_t>(p)] = true;
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> leaf_intervals(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (has_child[i] || parent_of(i) < 0) continue;
    std::size_t root = i;
    for (std::size_t depth = 0; depth < spans.size() && parent_of(root) >= 0; ++depth) {
      root = static_cast<std::size_t>(parent_of(root));
    }
    const SpanTime& r = spans[root];
    const std::uint64_t begin = std::max(spans[i].start_ns, r.start_ns);
    const std::uint64_t end =
        std::min(spans[i].start_ns + spans[i].duration_ns, r.start_ns + r.duration_ns);
    if (end > begin) leaf_intervals[root].emplace_back(begin, end);
  }

  double total = 0.0;
  double covered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parent_of(i) >= 0) continue;
    total += static_cast<double>(spans[i].duration_ns);
    covered += static_cast<double>(covered_ns(std::move(leaf_intervals[i])));
  }
  return total > 0.0 ? (total - covered) / total : 0.0;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench
