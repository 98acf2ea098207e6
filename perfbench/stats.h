// Pure bookkeeping for the round benchmark: percentile selection, round
// phase pairing and contribution accounting. Kept free of federation types
// so perfbench/selftest.cpp can check each rule on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile together with what it rests on.
struct Tail {
  double percentile = 0.0;  // e.g. 90.0 for p90
  double value = 0.0;
  std::size_t samples = 0;  // sample count the percentile was taken over
  std::size_t beyond = 0;   // samples strictly above the percentile's rank
};

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that has
/// at least `min_beyond` samples beyond it, by nearest rank: the p-th
/// percentile of n sorted samples is the k-th with k = ceil(p/100 * n), and
/// n - k samples lie beyond it. Empty when even the median has fewer than
/// `min_beyond` samples beyond (n < 2 * min_beyond).
inline std::optional<Tail> tail_percentile(std::vector<double> v,
                                           std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : kLadder) {
    const auto k = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (k == 0 || k > n || n - k < min_beyond) continue;
    return Tail{p, v[k - 1], n, n - k};
  }
  return std::nullopt;
}

/// Round phases as the server's EventBus announces them, in firing order.
enum class Phase { kStarted = 0, kBeforeAggregation, kAfterAggregation, kDone };

struct PhaseStamp {
  Phase phase = Phase::kStarted;
  std::int64_t round = 0;
  std::int64_t t_ns = 0;  // steady-clock nanoseconds
};

/// One round's phase timestamps. A round is complete only when all four
/// phases were seen for that round index.
struct RoundTimes {
  std::int64_t round = 0;
  std::int64_t started_ns = 0;
  std::int64_t before_agg_ns = 0;
  std::int64_t after_agg_ns = 0;
  std::int64_t done_ns = 0;

  double wall_s() const { return 1e-9 * static_cast<double>(done_ns - started_ns); }
  double gather_s() const {
    return 1e-9 * static_cast<double>(before_agg_ns - started_ns);
  }
  double close_s() const {
    return 1e-9 * static_cast<double>(after_agg_ns - before_agg_ns);
  }
  double persist_s() const {
    return 1e-9 * static_cast<double>(done_ns - after_agg_ns);
  }
};

/// Pairs stamps by round index, never by arrival order: a round that never
/// finished (an abort leaves RoundStarted and maybe BeforeAggregation
/// behind) is dropped instead of being paired with a later round's Done,
/// and a phase seen twice for one round keeps its first stamp. Returns the
/// complete rounds in round order.
inline std::vector<RoundTimes> pair_rounds(const std::vector<PhaseStamp>& stamps) {
  struct Partial {
    std::int64_t t[4] = {0, 0, 0, 0};
    bool seen[4] = {false, false, false, false};
  };
  std::map<std::int64_t, Partial> by_round;
  for (const PhaseStamp& s : stamps) {
    Partial& p = by_round[s.round];
    const auto i = static_cast<std::size_t>(s.phase);
    if (!p.seen[i]) {
      p.seen[i] = true;
      p.t[i] = s.t_ns;
    }
  }
  std::vector<RoundTimes> out;
  for (const auto& [round, p] : by_round) {
    if (!(p.seen[0] && p.seen[1] && p.seen[2] && p.seen[3])) continue;
    if (!(p.t[0] <= p.t[1] && p.t[1] <= p.t[2] && p.t[2] <= p.t[3])) continue;
    out.push_back(RoundTimes{round, p.t[0], p.t[1], p.t[2], p.t[3]});
  }
  return out;
}

/// Contributions expected and aggregated over one job. Every site owes one
/// contribution per configured round; rounds an aborted job never reached
/// owe theirs too, so an abort counts every missing contribution.
struct Contributions {
  std::int64_t expected = 0;
  std::int64_t aggregated = 0;

  std::int64_t failed() const { return expected - aggregated; }
  double failed_frac() const {
    return expected > 0 ? static_cast<double>(failed()) / static_cast<double>(expected)
                        : 0.0;
  }
};

/// `aggregated_per_round` holds the contribution count of each round that
/// completed (the server's history); `sites` x `rounds` were owed.
inline Contributions count_contributions(
    std::int64_t sites, std::int64_t rounds,
    const std::vector<std::int64_t>& aggregated_per_round) {
  Contributions c;
  c.expected = sites * rounds;
  for (const std::int64_t n : aggregated_per_round) c.aggregated += n;
  c.aggregated = std::min(c.aggregated, c.expected);
  return c;
}

}  // namespace perfbench
