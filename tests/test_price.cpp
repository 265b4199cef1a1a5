// The paper's price table (core/price.hpp): each row spelled as its
// formula once, at several (n, t, f, k).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/price.hpp"

namespace indulgence {
namespace {

TEST(Price, EveryRowIsItsFormula) {
  struct Point {
    SystemConfig config;
    int f;
    Round k;
  };
  for (const Point& p : {Point{{4, 1}, 0, 0}, Point{{7, 2}, 1, 3},
                         Point{{10, 3}, 3, 8}, Point{{13, 6}, 2, 1}}) {
    const int t = p.config.t;
    const int f = p.f;
    const Round k = p.k;
    SCOPED_TRACE(::testing::Message()
                 << "t=" << t << " f=" << f << " k=" << k);
    auto row = [&](PriceRow r) { return price(r, p.config, f, k); };
    EXPECT_EQ(row(PriceRow::FloodSet), Price{t + 1});
    EXPECT_EQ(row(PriceRow::FloodSetWS), Price{t + 1});
    EXPECT_EQ(row(PriceRow::FloodSetEarly), Price{std::min(f + 2, t + 1)});
    EXPECT_EQ(row(PriceRow::At2), (Price{t + 2, 1}));
    EXPECT_EQ(row(PriceRow::At2DS), (Price{t + 2, 1}));
    EXPECT_EQ(row(PriceRow::At2FailureFree), Price{2});
    EXPECT_EQ(row(PriceRow::HurfinRaynal), Price{2 * f + 2});
    EXPECT_EQ(row(PriceRow::ChandraToueg), Price{4 * f + 4});
    EXPECT_EQ(row(PriceRow::Af2), Price{k + f + 2});
    EXPECT_EQ(row(PriceRow::Amr), Price{k + 2 * f + 2});
    EXPECT_EQ(row(PriceRow::LowerBound), Price{k + f + 2});
    EXPECT_EQ(row(PriceRow::At2Auth), Price{3});
  }
}

}  // namespace
}  // namespace indulgence
