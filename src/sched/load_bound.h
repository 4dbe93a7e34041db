// Certified bounds on float ticket loads.
//
// A server's ticket load is FreshTicketLoad(): the in-order float sum of its
// residents' tickets T*s/max(D, s). The ClusterStateIndex keeps, per server,
// an interval [lo, hi] that provably contains that float and moves it by
// O(1) arithmetic per load-changing event, so the load scans re-sum only
// the servers whose interval reaches an extreme (DESIGN.md, "Certified
// ticket-load bounds", states the proof).
//
// Everything here rounds to nearest and relies on each +, -, * and / being
// rounded once (the tree builds with -ffp-contract=off). With u = 2^-53:
//  * a real r >= 0 computed as x = r(1+d1)...(1+dk), |di| <= u, lies in
//    [LowerOf(x, k), UpperOf(x, k)]. The same holds for any x' <= x
//    (LowerOf) or x' >= x (UpperOf): the helpers are monotone.
//  * a load of n entries is within n+1 roundings of its real value: two per
//    entry's tickets (one *, one /) and n-1 for the sum, which starts from
//    an exact 0 + t1. Per entry the factors differ, but each term's product
//    of n+1 factors is within the same bound, which is all the helpers use.
#ifndef GFAIR_SCHED_LOAD_BOUND_H_
#define GFAIR_SCHED_LOAD_BOUND_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/units.h"
#include "sched/stride.h"

namespace gfair::sched {

// fl(x * (1 - 2(k+1)u)), and 0 for x <= 0: below any real r >= 0 that x
// overestimates by at most k roundings. 1 - j*2^-52 is exact for the small
// j used here (doubles below 1 are spaced 2^-53).
inline double LowerOf(double x, size_t k) {
  if (x <= 0.0) {
    return 0.0;
  }
  return x * (1.0 - static_cast<double>(k + 1) * 0x1p-52);
}
// fl(x * (1 + 2(k+1)u)): above any real r that x underestimates by at most
// k roundings. 1 + j*2^-52 is exact (doubles above 1 are spaced 2^-52).
inline double UpperOf(double x, size_t k) {
  return x * (1.0 + static_cast<double>(k + 1) * 0x1p-52);
}
inline Tickets LowerOf(Tickets x, size_t k) {
  return x <= 0.0 ? Tickets(0.0) : x * (1.0 - static_cast<double>(k + 1) * 0x1p-52);
}
inline Tickets UpperOf(Tickets x, size_t k) {
  return x * (1.0 + static_cast<double>(k + 1) * 0x1p-52);
}
// The same for a real r of either sign that x = fl(...) is within k
// roundings of (rounding keeps the sign, and a difference of doubles is 0
// only when they are equal). Also absorbs k - 1 later roundings of a
// product of the result with a value >= 0.
inline Tickets SignedLowerOf(Tickets x, size_t k) {
  const double slack = static_cast<double>(k + 1) * 0x1p-52;
  return x * (x >= 0.0 ? 1.0 - slack : 1.0 + slack);
}
inline Tickets SignedUpperOf(Tickets x, size_t k) {
  const double slack = static_cast<double>(k + 1) * 0x1p-52;
  return x * (x >= 0.0 ? 1.0 + slack : 1.0 - slack);
}

// A sum of shares (gang x weight) kept by one add or subtract per
// membership change, with a bound on the rounding it has collected: the
// exact sum of the shares it holds lies in [sum - error, sum + error].
// Integer and dyadic shares (weights 1 or 2.5) add exactly and keep
// error 0; a weight like 1/3 makes some adds inexact.
struct ShareSum {
  double sum = 0.0;
  double error = 0.0;

  void Add(double share) { Accumulate(share); }
  void Remove(double share) { Accumulate(-share); }

  bool exact() const { return error <= 0.0; }
  // The exact sum's bounds.
  double Lower() const { return exact() ? sum : LowerOf(sum - error, 1); }
  double Upper() const { return exact() ? sum : UpperOf(sum + error, 1); }

 private:
  void Accumulate(double term) {
    // Knuth's TwoSum: `rounding` is exactly (sum + term) - fl(sum + term).
    const double total = sum + term;
    const double back = total - sum;
    const double rounding = (sum - (total - back)) + (term - back);
    sum = total;
    if (rounding != 0.0) {  // gfair-lint: allow(float-eq) -- TwoSum's remainder is exactly 0 when the add was exact
      error = UpperOf(error + std::abs(rounding), 1);
    }
  }
};

// Bounds [lo, hi] on a real change of a load; either end may be negative.
struct LoadShift {
  Tickets lo;
  Tickets hi;
};

// A re-pricing of one (user, pool): its entries read `before` until now and
// `after` from now on. ShiftFor bounds the change of one hosting server's
// real load.
class RateChange {
 public:
  RateChange(const TicketRate& before, const TicketRate& after)
      : before_(before),
        after_(after),
        demand_floor_(std::min(before.pool_demand, after.pool_demand)),
        per_share_lo_(SignedLowerOf(after_.per_share_lo - before_.per_share_hi, 2)),
        per_share_hi_(SignedUpperOf(after_.per_share_hi - before_.per_share_lo, 2)) {}

  // The change of the real tickets of entries whose shares sum to `shares`.
  // When that sum is exact and no more than either D, every entry reads
  // T*s/D under both rates, so the change is S*(T'/D' - T/D): one product
  // per bound, its rounding absorbed by the per-share bounds. Otherwise
  // each rate's tickets are bounded apart (SharePrice).
  LoadShift ShiftFor(const ShareSum& shares) const {
    if (shares.exact() && shares.sum <= demand_floor_) {
      return LoadShift{per_share_lo_ * shares.sum, per_share_hi_ * shares.sum};
    }
    const double share_lo = shares.Lower();
    const double share_hi = shares.Upper();
    return LoadShift{
        SignedLowerOf(after_.Lower(share_lo, share_hi) - before_.Upper(share_hi), 1),
        SignedUpperOf(after_.Upper(share_hi) - before_.Lower(share_lo, share_hi), 1)};
  }

 private:
  // One rate's tickets per unit of share, T/D, enclosed once.
  struct SharePrice {
    Tickets pool_tickets;  // T
    double pool_demand;    // D
    Tickets per_share_lo;  // <= T/D <= per_share_hi
    Tickets per_share_hi;

    explicit SharePrice(const TicketRate& rate)
        : pool_tickets(rate.pool_tickets),
          pool_demand(rate.pool_demand),
          per_share_lo(LowerOf(rate.pool_tickets / rate.pool_demand, 1)),
          per_share_hi(UpperOf(rate.pool_tickets / rate.pool_demand, 1)) {}

    // Bounds on the real tickets sum(T*s/max(D, s)) of entries whose shares
    // sum to a real S in [share_lo, share_hi]. Each term is at most T*s/D,
    // and at least T*s/max(D, S) since s <= S. A published D sums every
    // share of the pool, so usually S <= D and both ends are S*T/D; an
    // entry added under a stale rate can have s > D.
    Tickets Lower(double share_lo, double share_hi) const {  // gfair-lint: allow(raw-double-in-sched-api) -- shares are gang x weight, not a unit quantity
      if (share_hi <= pool_demand) {
        return LowerOf(per_share_lo * share_lo, 1);
      }
      return LowerOf(pool_tickets * share_lo / share_hi, 2);
    }
    Tickets Upper(double share_hi) const {  // gfair-lint: allow(raw-double-in-sched-api) -- shares are gang x weight, not a unit quantity
      return UpperOf(per_share_hi * share_hi, 1);
    }
  };

  SharePrice before_;
  SharePrice after_;
  double demand_floor_;  // min(D, D')
  // Bounds on T'/D' - T/D such that share * bound rounds beyond it.
  Tickets per_share_lo_;
  Tickets per_share_hi_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_LOAD_BOUND_H_
