// Self-tests of the round benchmark's bookkeeping (stats.h). Run with
// `python3 perfbench/run.py --self-test`; exits non-zero on the first
// failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void test_tail_percentile() {
  // 19 samples: even the median has only 9 beyond it.
  check(!perfbench::tail_percentile(ramp(19)).has_value(), "n=19 has no tail");
  // 20 samples: p50 is the 10th, with exactly 10 beyond.
  auto t = perfbench::tail_percentile(ramp(20));
  check(t && t->percentile == 50.0 && t->value == 10.0 && t->beyond == 10,
        "n=20 -> p50 = 10th sample, 10 beyond");
  // 100 samples: p90 is the 90th with 10 beyond; p95 has only 5.
  t = perfbench::tail_percentile(ramp(100));
  check(t && t->percentile == 90.0 && t->value == 90.0 && t->beyond == 10,
        "n=100 -> p90");
  // 1000 samples: p99 has 10 beyond; p99.9 only 1.
  t = perfbench::tail_percentile(ramp(1000));
  check(t && t->percentile == 99.0 && t->value == 990.0 && t->samples == 1000,
        "n=1000 -> p99");
  // 39 samples: p75 is the 30th with 9 beyond -> falls back to p50.
  t = perfbench::tail_percentile(ramp(39));
  check(t && t->percentile == 50.0 && t->value == 20.0, "n=39 -> p50");
  check(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void test_contributions() {
  // A clean job: 4 sites x 3 rounds, every contribution aggregated.
  auto c = perfbench::count_contributions(4, 3, {4, 4, 4});
  check(c.failed() == 0 && c.failed_frac() == 0.0, "clean job fails none");
  // A rejected contribution in round 1.
  c = perfbench::count_contributions(4, 3, {4, 3, 4});
  check(c.failed() == 1 && c.failed_frac() == 1.0 / 12.0, "one rejection");
  // Aborted after one round: the two rounds never run owe 8 contributions.
  c = perfbench::count_contributions(4, 3, {4});
  check(c.expected == 12 && c.failed() == 8, "abort counts every missing contribution");
  // Aborted before any round closed.
  c = perfbench::count_contributions(64, 40, {});
  check(c.failed_frac() == 1.0, "abort before round 0 fails all");
}

void test_pairing() {
  using perfbench::Phase;
  using perfbench::PhaseStamp;
  // Round 0 complete, round 1 aborted after BeforeAggregation, round 2
  // complete. Round 1 must not borrow round 2's Done stamp.
  const std::vector<PhaseStamp> stamps = {
      {Phase::kStarted, 0, 100},          {Phase::kBeforeAggregation, 0, 150},
      {Phase::kAfterAggregation, 0, 160}, {Phase::kDone, 0, 170},
      {Phase::kStarted, 1, 200},          {Phase::kBeforeAggregation, 1, 260},
      {Phase::kStarted, 2, 300},          {Phase::kBeforeAggregation, 2, 330},
      {Phase::kAfterAggregation, 2, 345}, {Phase::kDone, 2, 350},
  };
  const auto rounds = perfbench::pair_rounds(stamps);
  check(rounds.size() == 2, "incomplete round dropped");
  check(rounds.size() == 2 && rounds[0].round == 0 && rounds[1].round == 2,
        "rounds paired by index");
  check(rounds.size() == 2 && rounds[1].done_ns - rounds[1].started_ns == 50 &&
            rounds[1].before_agg_ns - rounds[1].started_ns == 30,
        "round 2 wall and gather");
  // Stamps arriving out of order (handlers on different threads) and a
  // duplicate Started keep the first stamp per phase.
  const std::vector<PhaseStamp> shuffled = {
      {Phase::kDone, 5, 90},   {Phase::kStarted, 5, 10},
      {Phase::kStarted, 5, 70}, {Phase::kAfterAggregation, 5, 80},
      {Phase::kBeforeAggregation, 5, 40},
  };
  const auto r5 = perfbench::pair_rounds(shuffled);
  check(r5.size() == 1 && r5[0].started_ns == 10 && r5[0].wall_s() == 80e-9,
        "out-of-order stamps pair by round");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_contributions();
  test_pairing();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
