// Self-test of perfbench's statistics: the percentile rule, span self time
// and coverage, and error_rate accounting. Exits non-zero on any failure.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: quantile must sort
  return v;
}

void percentile_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_quantile;
  EXPECT(tail_quantile(0) == 0.0);
  EXPECT(tail_quantile(19) == 0.0);  // the median has only 9 beyond it
  EXPECT(tail_quantile(20) == 0.5);
  EXPECT(tail_quantile(99) == 0.5);  // p90 would leave 9 beyond
  EXPECT(tail_quantile(100) == 0.9);
  EXPECT(tail_quantile(999) == 0.9);
  EXPECT(tail_quantile(1000) == 0.99);
  EXPECT(tail_quantile(10000) == 0.999);
  EXPECT(samples_beyond(100, 0.9) == 10);
  EXPECT(samples_beyond(1000, 0.99) == 10);

  EXPECT(perfbench::quantile(one_to(100), 0.5) == 50.0);
  EXPECT(perfbench::quantile(one_to(100), 0.9) == 90.0);
  EXPECT(perfbench::quantile(one_to(1000), 0.99) == 990.0);
  EXPECT(perfbench::quantile({}, 0.5) == 0.0);
  EXPECT(perfbench::quantile({7.0}, 0.99) == 7.0);

  const perfbench::Summary s = perfbench::summarize(one_to(100));
  EXPECT(s.n == 100 && s.p50 == 50.0 && s.tail_q == 0.9 && s.tail == 90.0);
}

void self_time() {
  using perfbench::SpanTime;
  // root [0,100) with children [10,30) and [20,50) (overlapping, other
  // thread), and [90,120) that runs past the root; a grandchild [12,18)
  // belongs to the first child only.
  const std::vector<SpanTime> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 20}, {3, 1, 20, 30}, {4, 1, 90, 30}, {5, 2, 12, 6},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  EXPECT(self.size() == 5);
  EXPECT(self[0] == 100 - 40 - 10);  // [10,50) and [90,100) covered
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // A span whose parent was never recorded keeps its full duration.
  const std::vector<std::uint64_t> orphan = perfbench::self_times({{9, 42, 5, 10}});
  EXPECT(orphan.size() == 1 && orphan[0] == 10);

  EXPECT(perfbench::covered_ns({}) == 0);
  EXPECT(perfbench::covered_ns({{0, 10}, {5, 15}, {20, 30}, {30, 31}}) == 26);
  EXPECT(perfbench::covered_ns({{5, 5}, {9, 3}}) == 0);
}

void unattributed() {
  // Root 1 [0,100) is wholly wrapped by span 2, which covers nothing itself;
  // its leaves 3 [10,30) and 4 [20,50) cover 40. Root 5 [200,300) has no
  // descendants. Root 6 [400,500) has leaf 7 [450,600), clipped to 50.
  const std::vector<perfbench::SpanTime> spans = {
      {1, 0, 0, 100},   {2, 1, 0, 100},   {3, 2, 10, 20}, {4, 2, 20, 30},
      {5, 0, 200, 100}, {6, 0, 400, 100}, {7, 6, 450, 150},
  };
  EXPECT(std::fabs(perfbench::unattributed_share(spans) - 210.0 / 300.0) < 1e-12);
  EXPECT(perfbench::unattributed_share({}) == 0.0);
  // A span whose parent was never recorded is a root.
  EXPECT(perfbench::unattributed_share({{9, 42, 0, 10}, {10, 9, 0, 10}}) == 0.0);
}

void error_accounting() {
  perfbench::ErrorLedger ledger;
  EXPECT(ledger.rate() == 0.0);
  for (int i = 0; i < 98; ++i) ledger.record(true);
  ledger.record(false);
  ledger.record(true);
  ledger.check(false);  // a failed output check of an attempted operation
  ledger.check(true);
  EXPECT(ledger.attempted == 100);
  EXPECT(ledger.failed == 2);
  EXPECT(ledger.rate() == 0.02);

  perfbench::ErrorLedger other;
  other.record(false);
  ledger += other;
  EXPECT(ledger.attempted == 101 && ledger.failed == 3);
}

void formatting() {
  EXPECT(perfbench::json_number(0.1) == "0.10000000000000001");
  EXPECT(perfbench::json_number(3.0) == "3");
  EXPECT(perfbench::json_number(std::nan("")) == "0");
  EXPECT(std::fabs(perfbench::geomean({2.0, 8.0}) - 4.0) < 1e-12);
  EXPECT(perfbench::geomean({}) == 0.0);
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  unattributed();
  error_accounting();
  formatting();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
