// Unit tests for the pbecc::check invariant layer: recording semantics,
// per-name counts, deep-check gating, reset isolation, and the obs mirror.
#include <gtest/gtest.h>

#include "check/check.h"
#include "obs/metrics.h"

namespace pbecc {
namespace {

// Each test resets the registry: invariants fire from anywhere in the
// process (that is the point of the layer), so only deltas are meaningful.
class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { check::reset(); }
  void TearDown() override { check::reset(); }
};

TEST_F(CheckTest, PassingInvariantRecordsNothing) {
  PBECC_INVARIANT(1 + 1 == 2, "check_test_pass");
  EXPECT_EQ(check::violations(), 0u);
  EXPECT_EQ(check::violations("check_test_pass"), 0u);
  EXPECT_TRUE(check::describe_violations().empty());
}

TEST_F(CheckTest, FailingInvariantIsRecordedNotThrown) {
  // Never throws or aborts in the default mode: a congestion controller
  // must not crash a connection over a diagnostic.
  PBECC_INVARIANT(false, "check_test_fail_a");
  PBECC_INVARIANT(false, "check_test_fail_a");
  PBECC_INVARIANT(false, "check_test_fail_b");
  EXPECT_EQ(check::violations(), 3u);
  EXPECT_EQ(check::violations("check_test_fail_a"), 2u);
  EXPECT_EQ(check::violations("check_test_fail_b"), 1u);
  EXPECT_EQ(check::violations("check_test_never_fired"), 0u);
}

TEST_F(CheckTest, DescribeNamesEverySiteWithCounts) {
  PBECC_INVARIANT(false, "check_test_digest");
  PBECC_INVARIANT(false, "check_test_digest");
  const std::string d = check::describe_violations();
  EXPECT_NE(d.find("check_test_digest"), std::string::npos);
  EXPECT_NE(d.find("x2"), std::string::npos);
  EXPECT_NE(d.find("check_test.cpp"), std::string::npos);

  const auto all = check::all_violations();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "check_test_digest");
  EXPECT_EQ(all[0].second, 2u);
}

TEST_F(CheckTest, ResetZeroesEverything) {
  PBECC_INVARIANT(false, "check_test_reset");
  ASSERT_GT(check::violations(), 0u);
  check::reset();
  EXPECT_EQ(check::violations(), 0u);
  EXPECT_EQ(check::violations("check_test_reset"), 0u);
  EXPECT_TRUE(check::all_violations().empty());
}

TEST_F(CheckTest, DeepInvariantGatedByBuildFlag) {
  // In a -DPBECC_CHECK=ON build the condition is evaluated and recorded;
  // otherwise the macro compiles to nothing (the condition must not even
  // be evaluated — side effects prove it).
  int evaluations = 0;
  PBECC_DEEP_INVARIANT((++evaluations, false), "check_test_deep");
  if constexpr (check::kDeep) {
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(check::violations("check_test_deep"), 1u);
  } else {
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(check::violations("check_test_deep"), 0u);
  }
}

TEST_F(CheckTest, MirroredIntoObsRegistry) {
  const std::uint64_t before = obs::counter("check.violations").value();
  const std::uint64_t named_before =
      obs::counter("check.violation.check_test_mirror").value();
  PBECC_INVARIANT(false, "check_test_mirror");
  EXPECT_EQ(obs::counter("check.violations").value(), before + 1);
  EXPECT_EQ(obs::counter("check.violation.check_test_mirror").value(),
            named_before + 1);
  EXPECT_EQ(check::violations("check_test_mirror"), 1u);
}

TEST_F(CheckTest, AbortModeToggle) {
  EXPECT_FALSE(check::abort_on_violation());
  check::set_abort_on_violation(true);
  EXPECT_TRUE(check::abort_on_violation());
  check::set_abort_on_violation(false);
  EXPECT_FALSE(check::abort_on_violation());
}

}  // namespace
}  // namespace pbecc
