/**
 * @file
 * Experiment helpers shared by the drivers and the experiment registry:
 * run an application (or the whole suite) under a configuration, build a
 * sweep job, and normalize an IPC against a baseline.
 */

#ifndef FINEREG_CORE_EXPERIMENT_HH
#define FINEREG_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "core/parallel_runner.hh"
#include "core/simulator.hh"
#include "core/sweep_journal.hh"
#include "workloads/suite.hh"

namespace finereg
{

class Experiment
{
  public:
    /** Run one suite application under @p config. */
    static SimResult runApp(const std::string &abbrev,
                            const GpuConfig &config,
                            double grid_scale = 1.0);

    /**
     * Run every suite application under @p config, fanning the
     * independent runs across a ParallelRunner pool.
     *
     * @param grid_scale shrinks the grids for sweep-heavy experiments.
     * @param jobs worker count (0 = FINEREG_JOBS env, then hardware
     *             concurrency; 1 = serial). Results are bit-identical
     *             for every worker count.
     * @return results keyed by abbreviation, in suite order.
     */
    static std::vector<SimResult> runSuite(const GpuConfig &config,
                                           double grid_scale = 1.0,
                                           unsigned jobs = 0);

    /**
     * Run every suite application under every config in @p configs as one
     * flat job matrix on a single worker pool (so a 5-policy sweep keeps
     * all workers busy across config boundaries).
     *
     * @return out[c][a] = result of app a under configs[c], suite order.
     */
    static std::vector<std::vector<SimResult>>
    runSweep(const std::vector<GpuConfig> &configs, double grid_scale = 1.0,
             unsigned jobs = 0);

    /**
     * Build one pool job that runs @p kernel under @p config. The config
     * carries the job's wall-clock budget (verify.wallTimeoutMs) and the
     * sweep-wide kill switch (verify.cancel). With a @p journal, a job
     * whose key has an "ok" entry replays it (bit-identical,
     * SimResult::fromJournal set) instead of re-simulating, and a job that
     * runs appends its outcome as it completes; failed and cancelled
     * entries re-run on the next resume. @p app is recorded in the
     * journal entry.
     */
    static ParallelRunner::Job makeSweepJob(
        std::shared_ptr<const Kernel> kernel, const GpuConfig &config,
        std::string app, SweepJournal *journal);

    /** Ratio helper for a single app pair. */
    static double speedup(const SimResult &result,
                          const SimResult &baseline)
    {
        return baseline.ipc > 0 ? result.ipc / baseline.ipc : 0.0;
    }

    /** A GTX-980 config preset with the policy set. */
    static GpuConfig configFor(PolicyKind kind);
};

} // namespace finereg

#endif // FINEREG_CORE_EXPERIMENT_HH
