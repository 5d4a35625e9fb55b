/**
 * @file
 * Kill-and-resume soak tests: a small soak — a mid-sweep kill and a
 * journal resume — must converge to results bit-identical to a clean
 * serial run, and the comparison it relies on must see single-bit drift.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "verify/chaos.hh"

namespace finereg
{
namespace
{

TEST(Chaos, CompareSimResultsIgnoresResilienceMetadata)
{
    SimResult a;
    a.kernelName = "k";
    a.policyName = "finereg";
    a.cycles = 100;
    a.instructions = 250;
    a.ipc = 2.5;

    SimResult b = a;
    EXPECT_EQ(compareSimResults(a, b), "");

    // fromJournal describes how the result was obtained, not what the
    // simulation computed; a replayed run must compare equal to a clean
    // one.
    b.fromJournal = true;
    EXPECT_EQ(compareSimResults(a, b), "");
}

TEST(Chaos, CompareSimResultsDetectsSingleBitDrift)
{
    SimResult a;
    a.kernelName = "k";
    a.cycles = 100;
    a.ipc = 2.5;

    SimResult b = a;
    b.ipc = 2.5000000000000004; // one ulp away
    const std::string ipc_diff = compareSimResults(a, b);
    EXPECT_NE(ipc_diff, "");
    EXPECT_NE(ipc_diff.find("ipc"), std::string::npos) << ipc_diff;

    b = a;
    b.cycles = 101;
    EXPECT_NE(compareSimResults(a, b), "");

    b = a;
    b.failed = true;
    EXPECT_NE(compareSimResults(a, b), "");
}

TEST(Chaos, SmallSoakConvergesToCleanResults)
{
    ChaosOptions options;
    options.rounds = 1;
    options.policies = {PolicyKind::FineReg};
    options.gridScale = 0.02;
    options.jobs = 2;
    options.killDelayMs = 20.0;
    options.journalPath = testing::TempDir() + "chaos_test.sweep.jsonl";

    const ChaosReport report = runChaosSoak(options);
    EXPECT_TRUE(report.passed) << report.summary();
    EXPECT_TRUE(report.mismatches.empty());
    EXPECT_EQ(report.totalJobs, 18u); // one policy x the full suite
    std::remove(options.journalPath.c_str());
}

} // namespace
} // namespace finereg
