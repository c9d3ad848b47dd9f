// Known-answer test of the estimator-calibration cell (obs/calibration.h);
// the prober's per-target cells and their CSV are tested in
// tests/measure/test_prober.cpp.
#include "obs/calibration.h"

#include <gtest/gtest.h>

namespace domino::obs {
namespace {

TEST(CalibrationCell, CoverageAndMargins) {
  CalibrationCell cell;
  EXPECT_EQ(cell.samples(), 0u);
  EXPECT_DOUBLE_EQ(cell.coverage(), 1.0);  // vacuously calibrated

  cell.record(milliseconds(50), milliseconds(40));  // covered, margin +10ms
  cell.record(milliseconds(50), milliseconds(50));  // covered, margin 0
  cell.record(milliseconds(50), milliseconds(65));  // overshoot 15ms
  cell.record(milliseconds(50), milliseconds(58));  // overshoot 8ms

  EXPECT_EQ(cell.samples(), 4u);
  EXPECT_EQ(cell.covered(), 2u);
  EXPECT_DOUBLE_EQ(cell.coverage(), 0.5);
  // sum margin = 10 + 0 - 15 - 8 = -13ms; mean = -13/4 ms (integer ns).
  EXPECT_EQ(cell.sum_margin_ns(), milliseconds(-13).nanos());
  EXPECT_EQ(cell.mean_margin_ns(), milliseconds(-13).nanos() / 4);
  EXPECT_EQ(cell.max_overshoot_ns(), milliseconds(15).nanos());
}

}  // namespace
}  // namespace domino::obs
