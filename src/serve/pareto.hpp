// Multi-objective Pareto serving (POSET-RL direction): dominance over
// (cycles, area, ir_size), bounded nondominated fronts, and the exact 3D
// hypervolume used by metrics and the bench gate. A request opts in with an
// ObjectiveWeights vector; weightless requests never touch this code, which
// is what keeps scalarised serving bit-identical to the pre-Pareto wire.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace autophase::serve {

/// Per-request objective weight vector. All-zero (the default) means "not a
/// Pareto request": the service runs the classic scalar decode and the wire
/// codec emits exactly today's bytes. Any weight > 0 makes that objective
/// *active* — dominance and the scalarised tie-break only ever look at
/// active objectives, so {cycles: 1} degenerates to single-objective
/// serving and {cycles: 1, ir_size: 1} trades the two off.
struct ObjectiveWeights {
  double cycles = 0.0;
  double area = 0.0;
  double ir_size = 0.0;

  [[nodiscard]] bool active() const noexcept {
    return cycles > 0.0 || area > 0.0 || ir_size > 0.0;
  }
  friend bool operator==(const ObjectiveWeights&, const ObjectiveWeights&) = default;
};

/// One point on the front: a pass sequence and its measured objectives.
/// `fingerprint` is the optimized module's fingerprint — the deterministic
/// tie-break everywhere two points compare equal on the active objectives.
struct ParetoPoint {
  std::vector<int> sequence;
  std::uint64_t cycles = 0;
  double area = 0.0;
  std::uint64_t ir_size = 0;
  std::uint64_t fingerprint = 0;
};

/// Strict Pareto dominance over the *active* objectives of `weights`:
/// a <= b everywhere and a < b somewhere. Inactive objectives are invisible
/// — with only `cycles` active this is exactly "fewer cycles wins".
[[nodiscard]] bool dominates(const ParetoPoint& a, const ParetoPoint& b,
                             const ObjectiveWeights& weights) noexcept;

/// Weighted scalarisation (smaller is better) — the bounded-width eviction
/// order and the representative-point order of a front.
[[nodiscard]] double scalar_score(const ParetoPoint& point,
                                  const ObjectiveWeights& weights) noexcept;

/// Inserts `point` into a nondominated `front`, keeping the invariant:
///   * dominated by any member -> rejected (returns false);
///   * equal to a member on every active objective -> the smaller
///     fingerprint survives (duplicate sequences reaching one IR collapse
///     deterministically);
///   * otherwise inserted, members it dominates are pruned, and when the
///     front exceeds `max_width` the worst scalar_score (tie-break: larger
///     fingerprint) is evicted — which may be the new point itself.
/// Returns true when the point is in the front on exit.
bool front_insert(std::vector<ParetoPoint>& front, ParetoPoint point,
                  const ObjectiveWeights& weights, std::size_t max_width);

/// True when no member dominates (or duplicates) another — the invariant
/// front_insert maintains; exposed so tests, the demo, and the bench can
/// verify a served front rather than trust it.
[[nodiscard]] bool is_nondominated(std::span<const ParetoPoint> front,
                                   const ObjectiveWeights& weights) noexcept;

/// Canonical order: scalar_score ascending, fingerprint ascending. front[0]
/// is the representative point (what a scalar request would have returned);
/// the wire encodes fronts in this order so bytes are insertion-order-free.
void sort_front(std::vector<ParetoPoint>& front, const ObjectiveWeights& weights);

/// Exact hypervolume of `front` against `reference` (the unoptimised
/// baseline measurement), over the active objectives, with each dimension
/// normalised by the reference value — so the result lives in [0, 1]^d
/// volume units and is comparable across programs. Points not strictly
/// better than the reference in every active dimension contribute nothing.
/// Coordinate-compressed union-of-boxes; exact for the front widths serving
/// uses (O(n^4) worst case, n <= front width).
[[nodiscard]] double hypervolume(std::span<const ParetoPoint> front, const ParetoPoint& reference,
                                 const ObjectiveWeights& weights) noexcept;

}  // namespace autophase::serve
