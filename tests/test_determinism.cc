/**
 * @file
 * Determinism suite: the same (kernel, seed, config) must produce an
 * identical SimResult under every policy, whether runs execute serially or
 * fanned across a ParallelRunner pool — and turning value tracking on must
 * not perturb timing by a single cycle.
 */

#include <gtest/gtest.h>

#include "core/parallel_runner.hh"
#include "core/simulator.hh"
#include "ref/arch_state.hh"
#include "ref/kernel_gen.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::Baseline, PolicyKind::VirtualThread, PolicyKind::RegDram,
    PolicyKind::RegMutex, PolicyKind::FineReg};

GpuConfig
smallConfig(PolicyKind kind)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = kind;
    config.trackValues = true;
    return config;
}

std::unique_ptr<Kernel>
testKernel()
{
    return generateKernelSpec(0xd37e).build();
}

/** Field-by-field equality over everything a SimResult reports. */
void
expectIdentical(const SimResult &a, const SimResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.kernelName, b.kernelName) << what;
    EXPECT_EQ(a.policyName, b.policyName) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.hitCycleLimit, b.hitCycleLimit) << what;
    EXPECT_EQ(a.completedCtas, b.completedCtas) << what;
    EXPECT_EQ(a.avgResidentCtas, b.avgResidentCtas) << what;
    EXPECT_EQ(a.avgActiveCtas, b.avgActiveCtas) << what;
    EXPECT_EQ(a.avgActiveThreads, b.avgActiveThreads) << what;
    EXPECT_EQ(a.dramBytesData, b.dramBytesData) << what;
    EXPECT_EQ(a.dramBytesCtaContext, b.dramBytesCtaContext) << what;
    EXPECT_EQ(a.dramBytesBitvec, b.dramBytesBitvec) << what;
    EXPECT_EQ(a.depletionStallFraction, b.depletionStallFraction) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.energy.total(), b.energy.total()) << what;
    EXPECT_EQ(a.policyStorageBits, b.policyStorageBits) << what;
    EXPECT_EQ(a.failed, b.failed) << what;
    ASSERT_NE(a.archState, nullptr) << what;
    ASSERT_NE(b.archState, nullptr) << what;
    EXPECT_EQ(a.archState->fingerprint(), b.archState->fingerprint())
        << what;
}

TEST(Determinism, SameSeedSameResultUnderEveryPolicy)
{
    const auto kernel = testKernel();
    for (const PolicyKind kind : kAllPolicies) {
        const GpuConfig config = smallConfig(kind);
        const SimResult a = Simulator::run(config, *kernel);
        const SimResult b = Simulator::run(config, *kernel);
        ASSERT_FALSE(a.failed) << a.failureReason;
        expectIdentical(a, b, policyKindName(kind));
    }
}

TEST(Determinism, SerialAndParallelRunsAreIdentical)
{
    const auto kernel = testKernel();

    auto make_jobs = [&] {
        std::vector<ParallelRunner::Job> jobs;
        for (const PolicyKind kind : kAllPolicies) {
            jobs.push_back([kernel = kernel.get(), kind] {
                return Simulator::run(smallConfig(kind), *kernel);
            });
        }
        return jobs;
    };

    ParallelRunner serial(1);
    ParallelRunner pooled(4);
    const std::vector<SimResult> a = serial.run(make_jobs());
    const std::vector<SimResult> b = pooled.run(make_jobs());

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_FALSE(a[i].failed) << a[i].failureReason;
        expectIdentical(a[i], b[i],
                        std::string("job ") + std::to_string(i));
    }
}

TEST(Determinism, ValueTrackingDoesNotPerturbTiming)
{
    // The tracking layer is pure observation: cycle counts, instruction
    // counts, and memory traffic must be bit-identical with it disabled.
    const auto kernel = testKernel();
    for (const PolicyKind kind : kAllPolicies) {
        GpuConfig tracked = smallConfig(kind);
        GpuConfig untracked = tracked;
        untracked.trackValues = false;

        const SimResult a = Simulator::run(tracked, *kernel);
        const SimResult b = Simulator::run(untracked, *kernel);
        ASSERT_FALSE(a.failed) << a.failureReason;
        EXPECT_EQ(a.cycles, b.cycles) << policyKindName(kind);
        EXPECT_EQ(a.instructions, b.instructions) << policyKindName(kind);
        EXPECT_EQ(a.dramBytesData, b.dramBytesData) << policyKindName(kind);
        EXPECT_EQ(a.l1Hits, b.l1Hits) << policyKindName(kind);
        EXPECT_EQ(a.l1Misses, b.l1Misses) << policyKindName(kind);
        EXPECT_EQ(b.archState, nullptr) << policyKindName(kind);
    }
}

TEST(Determinism, SuiteAppIsReproducibleUnderFineReg)
{
    // A real workload (barriers, shared memory, divergence) on top of the
    // generated one.
    const auto kernel = Suite::makeKernel(Suite::byName("HS"), 0.02);
    const GpuConfig config = smallConfig(PolicyKind::FineReg);
    const SimResult a = Simulator::run(config, *kernel);
    const SimResult b = Simulator::run(config, *kernel);
    ASSERT_FALSE(a.failed) << a.failureReason;
    expectIdentical(a, b, "HS/finereg");
}

} // namespace
} // namespace finereg
