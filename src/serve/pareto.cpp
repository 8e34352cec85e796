#include "serve/pareto.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

namespace autophase::serve {

namespace {

/// Equal on every *active* objective — the duplicate case front_insert
/// collapses by fingerprint.
bool equal_on_active(const ParetoPoint& a, const ParetoPoint& b,
                     const ObjectiveWeights& w) noexcept {
  if (w.cycles > 0.0 && a.cycles != b.cycles) return false;
  if (w.area > 0.0 && a.area != b.area) return false;
  if (w.ir_size > 0.0 && a.ir_size != b.ir_size) return false;
  return true;
}

}  // namespace

bool dominates(const ParetoPoint& a, const ParetoPoint& b,
               const ObjectiveWeights& weights) noexcept {
  bool strictly_better = false;
  if (weights.cycles > 0.0) {
    if (a.cycles > b.cycles) return false;
    if (a.cycles < b.cycles) strictly_better = true;
  }
  if (weights.area > 0.0) {
    if (a.area > b.area) return false;
    if (a.area < b.area) strictly_better = true;
  }
  if (weights.ir_size > 0.0) {
    if (a.ir_size > b.ir_size) return false;
    if (a.ir_size < b.ir_size) strictly_better = true;
  }
  return strictly_better;
}

double scalar_score(const ParetoPoint& point, const ObjectiveWeights& weights) noexcept {
  return weights.cycles * static_cast<double>(point.cycles) + weights.area * point.area +
         weights.ir_size * static_cast<double>(point.ir_size);
}

bool front_insert(std::vector<ParetoPoint>& front, ParetoPoint point,
                  const ObjectiveWeights& weights, std::size_t max_width) {
  for (ParetoPoint& member : front) {
    if (dominates(member, point, weights)) return false;
    if (equal_on_active(member, point, weights)) {
      // Duplicate objective vector: deterministic collapse by fingerprint,
      // independent of the order candidates were produced in.
      if (point.fingerprint < member.fingerprint) {
        member = std::move(point);
        return true;
      }
      return false;
    }
  }
  std::erase_if(front,
                [&](const ParetoPoint& member) { return dominates(point, member, weights); });
  front.push_back(std::move(point));
  if (max_width == 0 || front.size() <= max_width) return true;
  // Bounded width: evict the worst scalarised member (tie-break: larger
  // fingerprint goes), which may be the point just inserted.
  std::size_t worst = 0;
  for (std::size_t i = 1; i < front.size(); ++i) {
    const double si = scalar_score(front[i], weights);
    const double sw = scalar_score(front[worst], weights);
    if (si > sw || (si == sw && front[i].fingerprint > front[worst].fingerprint)) worst = i;
  }
  const bool evicted_new = worst == front.size() - 1;
  front.erase(front.begin() + static_cast<std::ptrdiff_t>(worst));
  return !evicted_new;
}

bool is_nondominated(std::span<const ParetoPoint> front,
                     const ObjectiveWeights& weights) noexcept {
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i == j) continue;
      if (dominates(front[i], front[j], weights)) return false;
      if (i < j && equal_on_active(front[i], front[j], weights)) return false;
    }
  }
  return true;
}

void sort_front(std::vector<ParetoPoint>& front, const ObjectiveWeights& weights) {
  std::sort(front.begin(), front.end(), [&](const ParetoPoint& a, const ParetoPoint& b) {
    const double sa = scalar_score(a, weights);
    const double sb = scalar_score(b, weights);
    if (sa != sb) return sa < sb;
    return a.fingerprint < b.fingerprint;
  });
}

double hypervolume(std::span<const ParetoPoint> front, const ParetoPoint& reference,
                   const ObjectiveWeights& weights) noexcept {
  // Active dimensions in fixed (cycles, area, ir_size) order.
  std::array<double, 3> refs{};
  std::size_t dims = 0;
  if (weights.cycles > 0.0) refs[dims++] = static_cast<double>(reference.cycles);
  if (weights.area > 0.0) refs[dims++] = reference.area;
  if (weights.ir_size > 0.0) refs[dims++] = static_cast<double>(reference.ir_size);
  if (dims == 0) return 0.0;
  for (std::size_t k = 0; k < dims; ++k) {
    if (refs[k] <= 0.0) return 0.0;  // nothing can strictly improve on a zero baseline
  }

  // Normalise by the reference; a point not strictly inside [0, 1)^d spans
  // an empty box against the reference corner and is dropped.
  std::vector<std::array<double, 3>> pts;
  pts.reserve(front.size());
  for (const ParetoPoint& p : front) {
    std::array<double, 3> c{};
    std::size_t k = 0;
    if (weights.cycles > 0.0) {
      c[k] = static_cast<double>(p.cycles) / refs[k];
      ++k;
    }
    if (weights.area > 0.0) {
      c[k] = p.area / refs[k];
      ++k;
    }
    if (weights.ir_size > 0.0) {
      c[k] = static_cast<double>(p.ir_size) / refs[k];
      ++k;
    }
    bool inside = true;
    for (std::size_t d = 0; d < dims; ++d) inside = inside && c[d] < 1.0;
    if (inside) pts.push_back(c);
  }
  if (pts.empty()) return 0.0;

  // Coordinate-compressed union of boxes [c, 1]^d: a grid cell is covered
  // iff some point is <= its lower corner in every dimension.
  std::array<std::vector<double>, 3> coords;
  for (std::size_t k = 0; k < dims; ++k) {
    for (const auto& c : pts) coords[k].push_back(c[k]);
    coords[k].push_back(1.0);
    std::sort(coords[k].begin(), coords[k].end());
    coords[k].erase(std::unique(coords[k].begin(), coords[k].end()), coords[k].end());
  }

  double volume = 0.0;
  std::array<std::size_t, 3> idx{};
  while (true) {
    double cell = 1.0;
    bool covered_possible = true;
    std::array<double, 3> lower{};
    for (std::size_t k = 0; k < dims; ++k) {
      lower[k] = coords[k][idx[k]];
      cell *= coords[k][idx[k] + 1] - lower[k];
      covered_possible = covered_possible && cell > 0.0;
    }
    if (covered_possible) {
      for (const auto& c : pts) {
        bool covers = true;
        for (std::size_t k = 0; k < dims; ++k) covers = covers && c[k] <= lower[k];
        if (covers) {
          volume += cell;
          break;
        }
      }
    }
    // Advance the mixed-radix cell index; radix k runs over cells, i.e.
    // coords[k].size() - 1 positions.
    std::size_t k = 0;
    while (k < dims && ++idx[k] == coords[k].size() - 1) idx[k++] = 0;
    if (k == dims) break;
  }
  return volume;
}

}  // namespace autophase::serve
