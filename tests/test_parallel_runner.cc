/**
 * @file
 * ParallelRunner tests: serial and parallel execution of the suite are
 * bit-identical under every policy, exceptions are captured per job without
 * poisoning siblings, FINEREG_JOBS resolution, fail-fast cancellation, and
 * deterministic result ordering. The CI ThreadSanitizer variant runs
 * exactly this file (--gtest_filter=ParallelRunner*).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
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

    ParallelRunner runner({.jobs = 4, .failFast = false});
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
    ParallelRunner runner({.jobs = 2, .failFast = false});
    const auto results = runner.run(std::move(jobs));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].error.kind, SimErrorKind::InvariantViolation);
    EXPECT_EQ(results[0].error.invariant, "pcrf-chain");
    EXPECT_EQ(results[0].error.cycle, 1234u);
}

TEST(ParallelRunner, FailFastCancelsPendingJobs)
{
    std::atomic<unsigned> executed{0};
    std::vector<ParallelRunner::Job> jobs;
    jobs.push_back([&]() -> SimResult {
        ++executed;
        throw std::runtime_error("fatal");
    });
    for (int i = 0; i < 8; ++i) {
        jobs.push_back([&] {
            ++executed;
            return okResult("later");
        });
    }

    // Serial fail-fast is fully deterministic: job 0 fails, all 8
    // remaining jobs are cancelled without executing.
    ParallelRunner runner({.jobs = 1, .failFast = true});
    const auto outcome = runner.runAll(std::move(jobs));
    EXPECT_TRUE(outcome.cancelled);
    EXPECT_EQ(executed.load(), 1u);
    ASSERT_EQ(outcome.results.size(), 9u);
    EXPECT_EQ(outcome.results[0].error.kind,
              SimErrorKind::WorkerException);
    for (std::size_t i = 1; i < outcome.results.size(); ++i) {
        EXPECT_TRUE(outcome.results[i].failed);
        EXPECT_EQ(outcome.results[i].error.kind, SimErrorKind::Cancelled);
    }
}

TEST(ParallelRunner, FailFastParallelStillCompletes)
{
    // With real workers the cancellation point is racy; assert only the
    // invariants: the batch finishes, the failing job is recorded, and
    // every result is either ok, failed, or cancelled.
    std::vector<ParallelRunner::Job> jobs;
    jobs.push_back([]() -> SimResult {
        throw std::runtime_error("fatal");
    });
    for (int i = 0; i < 15; ++i)
        jobs.push_back([] { return okResult("x"); });

    ParallelRunner runner({.jobs = 4, .failFast = true});
    const auto outcome = runner.runAll(std::move(jobs));
    EXPECT_TRUE(outcome.cancelled);
    EXPECT_TRUE(outcome.results[0].failed);
    for (const auto &r : outcome.results) {
        if (r.failed) {
            EXPECT_TRUE(r.error.kind == SimErrorKind::WorkerException ||
                        r.error.kind == SimErrorKind::Cancelled);
        }
    }
}

TEST(ParallelRunner, ResolveJobsPrecedence)
{
    // Explicit request wins over everything.
    setenv("FINEREG_JOBS", "3", 1);
    EXPECT_EQ(ParallelRunner::resolveJobs(7), 7u);
    // Env wins when no explicit request.
    EXPECT_EQ(ParallelRunner::resolveJobs(0), 3u);
    // Garbage / non-positive env falls through to hardware concurrency.
    setenv("FINEREG_JOBS", "0", 1);
    EXPECT_GE(ParallelRunner::resolveJobs(0), 1u);
    setenv("FINEREG_JOBS", "banana", 1);
    EXPECT_GE(ParallelRunner::resolveJobs(0), 1u);
    unsetenv("FINEREG_JOBS");
    EXPECT_GE(ParallelRunner::resolveJobs(0), 1u);
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
    const auto outcome = runner.runAll(std::move(jobs));
    unsetenv("FINEREG_JOBS");
    EXPECT_EQ(outcome.jobsUsed, 1u);
    for (const auto &id : seen)
        EXPECT_EQ(id, main_id);
}

TEST(ParallelRunner, ResultsKeyedBySubmissionIndex)
{
    std::vector<ParallelRunner::Job> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([i] { return okResult(std::to_string(i)); });
    ParallelRunner runner({.jobs = 8, .failFast = false});
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
    EXPECT_FALSE(outcome.cancelled);
}

TEST(ParallelRunner, MoreWorkersThanJobsIsClamped)
{
    std::vector<ParallelRunner::Job> jobs;
    jobs.push_back([] { return okResult("only"); });
    ParallelRunner runner({.jobs = 16, .failFast = false});
    const auto outcome = runner.runAll(std::move(jobs));
    EXPECT_EQ(outcome.jobsUsed, 1u);
    ASSERT_EQ(outcome.results.size(), 1u);
    EXPECT_EQ(outcome.results[0].kernelName, "only");
}

} // namespace
} // namespace finereg
