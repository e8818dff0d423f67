// Fixture base for runtime tests that must leave the lifecycle checker
// (support/analysis.h) clean: in an MP_ANALYSIS build every test deriving
// from it fails on any finding its runs raise. Other builds compile the
// annotations out, so the count stays 0 there.
#pragma once

#include <gtest/gtest.h>

#include "support/analysis.h"

namespace mp {

class ZeroFindingsTest : public ::testing::Test {
 protected:
  void SetUp() override { analysis::LifecycleChecker::instance().reset(); }
  void TearDown() override {
    const auto& checker = analysis::LifecycleChecker::instance();
    EXPECT_EQ(checker.finding_count(), 0u) << checker.report();
  }
};

}  // namespace mp
