/**
 * @file
 * Simulator facade and experiment-helper tests: SimResult population, the
 * unified-memory config transform (Sec. VI-G3), normalization helpers,
 * and probe plumbing (Fig. 5 usage tracking, Table III stall episodes).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/simulator.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

TEST(Simulator, ResultFieldsPopulated)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    const SimResult r = Experiment::runApp("MC", config, 0.05);
    EXPECT_EQ(r.kernelName, "MC");
    EXPECT_EQ(r.policyName, "Baseline");
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.avgResidentCtas, 0.0);
    EXPECT_GT(r.avgActiveThreads, 0.0);
    EXPECT_GT(r.dramBytesData, 0u);
    EXPECT_GT(r.l1Hits + r.l1Misses, 0u);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_FALSE(r.hitCycleLimit);
}

TEST(Simulator, UsageTrackingProbe)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.usageTracking = true;
    const SimResult r = Experiment::runApp("MC", config, 0.1);
    EXPECT_GT(r.rfUsageMean, 0.0);
    EXPECT_LT(r.rfUsageMean, 1.0);
    EXPECT_LE(r.rfUsageMin, r.rfUsageMean);
    EXPECT_GE(r.rfUsageMax, r.rfUsageMean);
}

TEST(Simulator, StallProbe)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.stallProbe = true;
    const SimResult r = Experiment::runApp("MC", config, 0.1);
    EXPECT_GT(r.stallEpisodes, 0u);
    EXPECT_GT(r.stallEpisodeMean, 0.0);
}

TEST(Simulator, ProbesOffByDefault)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    const SimResult r = Experiment::runApp("MC", config, 0.05);
    EXPECT_DOUBLE_EQ(r.rfUsageMean, 0.0);
    EXPECT_EQ(r.stallEpisodes, 0u);
}

TEST(Simulator, UnifiedMemoryTransformFineReg)
{
    GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
    config.policy.unifiedMemory = true;
    const auto kernel = Suite::makeKernel(Suite::byName("SG"));
    const GpuConfig um = Simulator::applyUnifiedMemory(config, *kernel);
    // ACRF becomes the dedicated register file.
    EXPECT_EQ(um.sm.regFileBytes, config.policy.acrfBytes);
    // The 272 KB pool is fully distributed.
    EXPECT_EQ(um.policy.pcrfBytes + um.sm.shmemBytes +
                  um.mem.l1.sizeBytes,
              config.policy.umBytes);
    EXPECT_GE(um.mem.l1.sizeBytes, 48u * 1024);
}

TEST(Simulator, UnifiedMemoryGrowsL1ForShmemLightKernels)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.policy.unifiedMemory = true;
    const auto kernel = Suite::makeKernel(Suite::byName("AT")); // no shmem
    const GpuConfig um = Simulator::applyUnifiedMemory(config, *kernel);
    EXPECT_GT(um.mem.l1.sizeBytes, 48u * 1024);
    EXPECT_EQ(um.sm.regFileBytes, config.sm.regFileBytes);
}

TEST(Simulator, UnifiedMemoryRespectsShmemDemand)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.policy.unifiedMemory = true;
    const auto kernel = Suite::makeKernel(Suite::byName("TA")); // 32 KB/CTA
    const GpuConfig um = Simulator::applyUnifiedMemory(config, *kernel);
    EXPECT_GE(um.sm.shmemBytes, 64u * 1024);
}

TEST(Experiment, SpeedupHelper)
{
    SimResult a, b;
    a.ipc = 3.0;
    b.ipc = 2.0;
    EXPECT_DOUBLE_EQ(Experiment::speedup(a, b), 1.5);
    b.ipc = 0.0;
    EXPECT_DOUBLE_EQ(Experiment::speedup(a, b), 0.0);
}

TEST(Experiment, ConfigForSetsPolicy)
{
    const GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
    EXPECT_EQ(config.policy.kind, PolicyKind::FineReg);
    EXPECT_EQ(config.numSms, 16u);
    EXPECT_EQ(config.sm.regFileBytes, 256u * 1024);
}

TEST(GpuConfigTest, Table1Defaults)
{
    const GpuConfig config = GpuConfig::gtx980();
    EXPECT_EQ(config.numSms, 16u);
    EXPECT_EQ(config.sm.maxWarps, 64u);
    EXPECT_EQ(config.sm.maxThreads, 2048u);
    EXPECT_EQ(config.sm.maxCtas, 32u);
    EXPECT_EQ(config.sm.numSchedulers, 4u);
    EXPECT_EQ(config.sm.sched, SchedKind::GTO);
    EXPECT_EQ(config.sm.regFileBytes, 256u * 1024);
    EXPECT_EQ(config.sm.shmemBytes, 96u * 1024);
    EXPECT_EQ(config.mem.l1.sizeBytes, 48u * 1024);
    EXPECT_EQ(config.mem.l2.sizeBytes, 2048u * 1024);
    // 352.5 GB/s at 1.126 GHz.
    EXPECT_NEAR(config.mem.dram.bytesPerCycle, 313.0, 1.0);
}

TEST(GpuConfigTest, ToStringRendersTable1)
{
    const std::string text = GpuConfig::gtx980().toString();
    EXPECT_NE(text.find("16"), std::string::npos);
    EXPECT_NE(text.find("Greedy-then-oldest"), std::string::npos);
    EXPECT_NE(text.find("256KB"), std::string::npos);
}

} // namespace
} // namespace finereg
