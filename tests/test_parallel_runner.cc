/**
 * @file
 * ParallelRunner tests: serial and parallel execution of the suite are
 * bit-identical under every policy, exceptions are captured per job without
 * poisoning siblings, FINEREG_JOBS resolution, and deterministic result
 * ordering. The CI ThreadSanitizer variant runs exactly this file
 * (--gtest_filter=ParallelRunner*).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "verify/sim_error.hh"

namespace finereg
{
namespace
{

constexpr double kScale = 0.05;

/** Field-by-field equality over everything a SimResult carries. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.kernelName, b.kernelName);
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.hitCycleLimit, b.hitCycleLimit);
    EXPECT_EQ(a.completedCtas, b.completedCtas);
    EXPECT_EQ(a.avgResidentCtas, b.avgResidentCtas);
    EXPECT_EQ(a.avgActiveCtas, b.avgActiveCtas);
    EXPECT_EQ(a.avgActiveThreads, b.avgActiveThreads);
    EXPECT_EQ(a.dramBytesData, b.dramBytesData);
    EXPECT_EQ(a.dramBytesCtaContext, b.dramBytesCtaContext);
    EXPECT_EQ(a.dramBytesBitvec, b.dramBytesBitvec);
    EXPECT_EQ(a.depletionStallFraction, b.depletionStallFraction);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.rfUsageMean, b.rfUsageMean);
    EXPECT_EQ(a.rfUsageMin, b.rfUsageMin);
    EXPECT_EQ(a.rfUsageMax, b.rfUsageMax);
    EXPECT_EQ(a.stallEpisodeMean, b.stallEpisodeMean);
    EXPECT_EQ(a.stallEpisodes, b.stallEpisodes);
    EXPECT_EQ(a.energy.dramDyn, b.energy.dramDyn);
    EXPECT_EQ(a.energy.rfDyn, b.energy.rfDyn);
    EXPECT_EQ(a.energy.othersDyn, b.energy.othersDyn);
    EXPECT_EQ(a.energy.leakage, b.energy.leakage);
    EXPECT_EQ(a.energy.fineregOverhead, b.energy.fineregOverhead);
    EXPECT_EQ(a.energy.ctaSwitching, b.energy.ctaSwitching);
    EXPECT_EQ(a.policyStorageBits, b.policyStorageBits);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.error.kind, b.error.kind);
    EXPECT_EQ(a.error.message, b.error.message);
    EXPECT_EQ(a.failureReason, b.failureReason);
    EXPECT_EQ(a.stallDiagnostic, b.stallDiagnostic);
}

SimResult
okResult(const std::string &name)
{
    SimResult out;
    out.kernelName = name;
    out.cycles = 1;
    return out;
}

TEST(ParallelRunner, SerialVsParallelSuiteBitIdenticalAllPolicies)
{
    for (const PolicyKind kind :
         {PolicyKind::Baseline, PolicyKind::VirtualThread,
          PolicyKind::RegDram, PolicyKind::RegMutex, PolicyKind::FineReg}) {
        const GpuConfig config = Experiment::configFor(kind);
        const auto serial = Experiment::runSuite(config, kScale, 1);
        const auto parallel = Experiment::runSuite(config, kScale, 4);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(policyKindName(kind) + std::string("/") +
                         serial[i].kernelName);
            expectSameResult(serial[i], parallel[i]);
        }
    }
}

TEST(ParallelRunner, SweepMatchesPerConfigSuites)
{
    const std::vector<GpuConfig> configs{
        Experiment::configFor(PolicyKind::Baseline),
        Experiment::configFor(PolicyKind::FineReg)};
    const auto sweep = Experiment::runSweep(configs, kScale, 3);
    ASSERT_EQ(sweep.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto solo = Experiment::runSuite(configs[c], kScale, 1);
        ASSERT_EQ(sweep[c].size(), solo.size());
        for (std::size_t i = 0; i < solo.size(); ++i)
            expectSameResult(sweep[c][i], solo[i]);
    }
}

TEST(ParallelRunner, ExceptionInOneJobDoesNotPoisonSiblings)
{
    std::vector<ParallelRunner::Job> jobs;
    jobs.push_back([] { return okResult("a"); });
    jobs.push_back([]() -> SimResult {
        throw std::runtime_error("job 1 blew up");
    });
    jobs.push_back([] { return okResult("c"); });

    ParallelRunner runner(4);
    const auto results = runner.run(std::move(jobs));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[0].kernelName, "a");
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].error.kind, SimErrorKind::WorkerException);
    EXPECT_EQ(results[1].error.message, "job 1 blew up");
    EXPECT_FALSE(results[2].failed);
    EXPECT_EQ(results[2].kernelName, "c");
}

TEST(ParallelRunner, SimExceptionKeepsTypedError)
{
    std::vector<ParallelRunner::Job> jobs;
    jobs.push_back([]() -> SimResult {
        raiseInvariant("pcrf-chain", "chain broken", 7, 3, 1234);
    });
    ParallelRunner runner(2);
    const auto results = runner.run(std::move(jobs));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].error.kind, SimErrorKind::InvariantViolation);
    EXPECT_EQ(results[0].error.invariant, "pcrf-chain");
    EXPECT_EQ(results[0].error.cycle, 1234u);
}

TEST(ParallelRunner, ResolveJobsPrecedence)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    // Explicit request wins over everything.
    setenv("FINEREG_JOBS", "3", 1);
    EXPECT_EQ(ParallelRunner::resolveJobs(7), 7u);
    // Env wins when no explicit request.
    EXPECT_EQ(ParallelRunner::resolveJobs(0), 3u);
    // A value that is not a positive integer in full falls back to the
    // hardware count and warns, naming the variable. "4x" and "2.9" must
    // not be read as 4 and 2 workers.
    for (const char *bad : {"0", "banana", "4x", "2.9"}) {
        SCOPED_TRACE(bad);
        setenv("FINEREG_JOBS", bad, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(ParallelRunner::resolveJobs(0), hw);
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "FINEREG_JOBS='" + std::string(bad) + "'"),
                  std::string::npos);
    }
    unsetenv("FINEREG_JOBS");
    EXPECT_EQ(ParallelRunner::resolveJobs(0), hw);
}

TEST(ParallelRunner, SingleJobDegeneratesToCallingThread)
{
    setenv("FINEREG_JOBS", "1", 1);
    const auto main_id = std::this_thread::get_id();
    std::vector<ParallelRunner::Job> jobs;
    std::vector<std::thread::id> seen(3);
    for (int i = 0; i < 3; ++i) {
        jobs.push_back([&seen, i] {
            seen[i] = std::this_thread::get_id();
            return okResult("t");
        });
    }
    ParallelRunner runner; // jobs = 0 resolves via FINEREG_JOBS=1
    unsetenv("FINEREG_JOBS");
    EXPECT_EQ(runner.jobs(), 1u);
    runner.run(std::move(jobs));
    for (const auto &id : seen)
        EXPECT_EQ(id, main_id);
}

TEST(ParallelRunner, ResultsKeyedBySubmissionIndex)
{
    std::vector<ParallelRunner::Job> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([i] { return okResult(std::to_string(i)); });
    ParallelRunner runner(8);
    const auto results = runner.run(std::move(jobs));
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[i].kernelName, std::to_string(i));
}

TEST(ParallelRunner, EmptyBatch)
{
    ParallelRunner runner;
    const auto outcome = runner.runAll({});
    EXPECT_TRUE(outcome.results.empty());
    EXPECT_TRUE(outcome.wallMs.empty());
}

TEST(ParallelRunner, MoreWorkersThanJobsIsClamped)
{
    // One job needs one worker, and the calling thread is a worker: no
    // thread starts, so the job runs right here.
    std::thread::id seen;
    std::vector<ParallelRunner::Job> jobs;
    jobs.push_back([&seen] {
        seen = std::this_thread::get_id();
        return okResult("only");
    });
    ParallelRunner runner(16);
    const auto outcome = runner.runAll(std::move(jobs));
    EXPECT_EQ(seen, std::this_thread::get_id());
    ASSERT_EQ(outcome.results.size(), 1u);
    EXPECT_EQ(outcome.results[0].kernelName, "only");
}

} // namespace
} // namespace finereg
