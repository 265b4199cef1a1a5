// The paper's round bounds in one table (DESIGN.md §1).
//
// price(row, config, f, k) is the global decision round a row's claim
// allows in a run synchronous after round k (0: a synchronous run) with f
// crashes after round k; a row whose claim does not depend on f or k
// ignores it.  Each consumer keeps its own comparison (<=, == or a range).
// Header-only: the RSM library reads it and does not link the core library.

#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace indulgence {

enum class PriceRow {
  FloodSet,        ///< R4: t + 1 in SCS
  FloodSetWS,      ///< t + 1 over a perfect failure detector
  FloodSetEarly,   ///< min(f + 2, t + 1), crashes in the first f + 1 rounds
  At2,             ///< R2: t + 2, plus the DECIDE relay
  At2DS,           ///< R6: t + 2, plus the DECIDE relay
  At2FailureFree,  ///< R7: 2 in a failure-free run with Fig. 4
  HurfinRaynal,    ///< R5: 2f + 2, one two-round attempt per crash
  ChandraToueg,    ///< 4f + 4, one four-round attempt per crash
  Af2,             ///< R9: k + f + 2 (Lemma 15)
  Amr,             ///< R9: k + 2f + 2 (footnote 10)
  LowerBound,      ///< R1/R8: some run decides at k + f + 2 or later
  At2Auth,         ///< 3 when view 1's leader is honest: this repository's
                   ///< extension, not the paper's
};

struct Price {
  Round round = 0;  ///< the claim's decision round
  Round relay = 0;  ///< rounds the repository's global decision round may
                    ///< add: a process a crash at round t + 2 starves
                    ///< decides a round later, on the DECIDE relay
  constexpr Round latest() const { return round + relay; }
  friend bool operator==(const Price&, const Price&) = default;
};

constexpr Price price(PriceRow row, const SystemConfig& config, int f,
                      Round k = 0) {
  const int t = config.t;
  switch (row) {
    case PriceRow::FloodSet:
    case PriceRow::FloodSetWS:
      return {t + 1};
    case PriceRow::FloodSetEarly:
      return {std::min(f + 2, t + 1)};
    case PriceRow::At2:
    case PriceRow::At2DS:
      return {t + 2, 1};
    case PriceRow::At2FailureFree:
      return {2};
    case PriceRow::HurfinRaynal:
      return {2 * f + 2};
    case PriceRow::ChandraToueg:
      return {4 * f + 4};
    case PriceRow::Af2:
    case PriceRow::LowerBound:
      return {k + f + 2};
    case PriceRow::Amr:
      return {k + 2 * f + 2};
    case PriceRow::At2Auth:
      return {3};
  }
  return {};
}

}  // namespace indulgence
