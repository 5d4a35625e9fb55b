#include "verify/chaos.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

namespace finereg
{

namespace
{

bool
sameDouble(double a, double b)
{
    // Bit comparison: the contract is bit-identity, not closeness.
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * One pass over the configs x apps matrix through @p journal: cells with an
 * "ok" entry replay, the rest run on @p jobs workers with @p kill installed
 * as every job's cancel token. results[c * apps + a] = app a, configs[c].
 */
std::vector<SimResult>
journaledSweep(const std::vector<GpuConfig> &configs,
               const std::vector<std::shared_ptr<const Kernel>> &kernels,
               SweepJournal &journal, unsigned jobs,
               const std::shared_ptr<CancelToken> &kill)
{
    const auto &apps = Suite::all();
    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(configs.size() * kernels.size());
    for (GpuConfig config : configs) {
        config.verify.cancel = kill;
        for (std::size_t a = 0; a < kernels.size(); ++a) {
            matrix.push_back(Experiment::makeSweepJob(
                kernels[a], config, apps[a].abbrev, &journal));
        }
    }
    return ParallelRunner(jobs).run(std::move(matrix));
}

} // namespace

std::string
compareSimResults(const SimResult &a, const SimResult &b)
{
    std::ostringstream oss;
    auto diff = [&oss](const char *field, auto va, auto vb) {
        oss << field << ": " << va << " vs " << vb;
    };

#define FINEREG_CMP_INT(field)                                              \
    if (a.field != b.field) {                                               \
        diff(#field, a.field, b.field);                                     \
        return oss.str();                                                   \
    }
#define FINEREG_CMP_DBL(field)                                              \
    if (!sameDouble(a.field, b.field)) {                                    \
        diff(#field, a.field, b.field);                                     \
        return oss.str();                                                   \
    }

    FINEREG_CMP_INT(kernelName)
    FINEREG_CMP_INT(policyName)
    FINEREG_CMP_INT(failed)
    FINEREG_CMP_INT(cycles)
    FINEREG_CMP_INT(instructions)
    FINEREG_CMP_DBL(ipc)
    FINEREG_CMP_INT(hitCycleLimit)
    FINEREG_CMP_INT(completedCtas)
    FINEREG_CMP_DBL(avgResidentCtas)
    FINEREG_CMP_DBL(avgActiveCtas)
    FINEREG_CMP_DBL(avgActiveThreads)
    FINEREG_CMP_INT(dramBytesData)
    FINEREG_CMP_INT(dramBytesCtaContext)
    FINEREG_CMP_INT(dramBytesBitvec)
    FINEREG_CMP_DBL(depletionStallFraction)
    FINEREG_CMP_INT(l1Hits)
    FINEREG_CMP_INT(l1Misses)
    FINEREG_CMP_DBL(rfUsageMean)
    FINEREG_CMP_DBL(rfUsageMin)
    FINEREG_CMP_DBL(rfUsageMax)
    FINEREG_CMP_DBL(stallEpisodeMean)
    FINEREG_CMP_INT(stallEpisodes)
    FINEREG_CMP_DBL(energy.dramDyn)
    FINEREG_CMP_DBL(energy.rfDyn)
    FINEREG_CMP_DBL(energy.othersDyn)
    FINEREG_CMP_DBL(energy.leakage)
    FINEREG_CMP_DBL(energy.fineregOverhead)
    FINEREG_CMP_DBL(energy.ctaSwitching)
    FINEREG_CMP_INT(policyStorageBits)

#undef FINEREG_CMP_INT
#undef FINEREG_CMP_DBL
    return {};
}

std::string
ChaosReport::summary() const
{
    std::ostringstream oss;
    oss << (passed ? "kill-and-resume soak PASSED"
                   : "kill-and-resume soak FAILED")
        << ": " << totalJobs << " jobs/sweep, " << killedJobs
        << " killed, " << replayedJobs
        << " replayed from journal on resume";
    if (!mismatches.empty()) {
        oss << "; " << mismatches.size() << " failure(s):";
        for (const std::string &m : mismatches)
            oss << "\n  - " << m;
    }
    return oss.str();
}

ChaosReport
runChaosSoak(const ChaosOptions &options)
{
    ChaosReport report;
    const auto &apps = Suite::all();

    std::vector<GpuConfig> configs;
    configs.reserve(options.policies.size());
    for (const PolicyKind kind : options.policies)
        configs.push_back(Experiment::configFor(kind));
    report.totalJobs =
        static_cast<unsigned>(configs.size() * apps.size());

    // Ground truth: clean, serial, unjournaled.
    const auto baseline =
        Experiment::runSweep(configs, options.gridScale, /*jobs=*/1);

    // Kernels are immutable after finalization: build each once and share
    // it across configs and rounds.
    std::vector<std::shared_ptr<const Kernel>> kernels;
    kernels.reserve(apps.size());
    for (const auto &app : apps)
        kernels.push_back(Suite::makeKernel(app, options.gridScale));

    // Start from a clean journal: the soak owns this path.
    std::remove(options.journalPath.c_str());

    // Killed rounds: each reopens the journal from disk exactly like a
    // --resume would, then cancels the shared token mid-sweep. In-flight
    // runs abort at their next loop iteration; jobs that start afterwards
    // are cancelled at their first.
    for (unsigned round = 0; round < options.rounds; ++round) {
        std::string error;
        auto journal = SweepJournal::open(options.journalPath, error);
        if (!journal) {
            report.mismatches.push_back("round " + std::to_string(round) +
                                        ": " + error);
            return report;
        }
        const auto kill = std::make_shared<CancelToken>();
        std::vector<SimResult> results;
        std::thread runner([&] {
            results = journaledSweep(configs, kernels, *journal,
                                     options.jobs, kill);
        });
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options.killDelayMs * (round + 1)));
        kill->cancel();
        runner.join();
        for (const SimResult &r : results)
            report.killedJobs +=
                r.error.kind == SimErrorKind::Cancelled ? 1 : 0;
    }

    // Final round: resume from the journal and run to completion.
    std::string error;
    auto journal = SweepJournal::open(options.journalPath, error);
    if (!journal) {
        report.mismatches.push_back("final resume: " + error);
        return report;
    }
    const std::vector<SimResult> results =
        journaledSweep(configs, kernels, *journal, options.jobs, nullptr);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const SimResult &got = results[c * apps.size() + a];
            report.replayedJobs += got.fromJournal ? 1 : 0;
            const std::string cell = apps[a].abbrev + "/" +
                                     policyKindName(configs[c].policy.kind);
            if (got.failed) {
                report.mismatches.push_back(cell + " failed after resume: " +
                                            got.error.toString());
                continue;
            }
            const std::string diff = compareSimResults(got, baseline[c][a]);
            if (!diff.empty())
                report.mismatches.push_back(
                    cell + " diverged from clean serial run (" + diff + ")");
        }
    }

    report.passed = report.mismatches.empty();
    return report;
}

} // namespace finereg
