/**
 * @file
 * ParallelRunner: a thread pool that fans independent simulation jobs
 * across hardware threads. Each job is a self-contained closure returning
 * a SimResult; workers claim jobs from one shared counter, and results are
 * keyed by submission index, so the output vector is bit-identical
 * regardless of worker count or completion order. Exceptions escaping a
 * job are captured into SimResult::failed (typed SimError).
 */

#ifndef FINEREG_CORE_PARALLEL_RUNNER_HH
#define FINEREG_CORE_PARALLEL_RUNNER_HH

#include <functional>
#include <vector>

#include "core/simulator.hh"

namespace finereg
{

class ParallelRunner
{
  public:
    using Job = std::function<SimResult()>;

    /** Everything runAll learns about one batch. */
    struct Outcome
    {
        /** One entry per job, in submission order. */
        std::vector<SimResult> results;

        /** Per-job wall-clock milliseconds. */
        std::vector<double> wallMs;

        /** Wall-clock milliseconds for the whole batch. */
        double totalWallMs = 0.0;
    };

    /**
     * @param jobs worker count; 0 resolves via resolveJobs (the
     *             FINEREG_JOBS environment variable, then hardware
     *             concurrency). 1 runs every job inline on the calling
     *             thread.
     */
    explicit ParallelRunner(unsigned jobs = 0);

    /**
     * Execute @p jobs and return per-job results plus timing. The results
     * vector is ordered by job index, never by completion order.
     */
    Outcome runAll(std::vector<Job> jobs);

    /** Convenience wrapper returning only the ordered results. */
    std::vector<SimResult> run(std::vector<Job> jobs);

    /** The resolved worker count (before clamping to a batch's size). */
    unsigned jobs() const { return jobs_; }

    /**
     * Resolve a worker count: @p requested when positive, else the
     * FINEREG_JOBS environment variable when it is a positive integer,
     * else std::thread::hardware_concurrency() (at least 1). A set but
     * malformed FINEREG_JOBS warns and falls back to the hardware count.
     */
    static unsigned resolveJobs(unsigned requested = 0);

  private:
    /**
     * Run @p job, converting any escaping exception into a failed
     * SimResult (SimException keeps its typed error; anything else
     * becomes WorkerException).
     */
    static SimResult runCaptured(const Job &job);

    unsigned jobs_;
};

} // namespace finereg

#endif // FINEREG_CORE_PARALLEL_RUNNER_HH
