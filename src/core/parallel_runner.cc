#include "core/parallel_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "verify/sim_error.hh"

namespace finereg
{

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * One worker's job queue. The owner pops from the front (FIFO over its
 * round-robin share); thieves steal from the back to minimize contention
 * with the owner. A mutex per queue is plenty here: jobs are whole
 * simulator runs (milliseconds to seconds each), so queue operations are
 * nowhere near the critical path.
 */
struct WorkQueue
{
    std::mutex mutex;
    std::deque<std::size_t> indices;

    bool
    popFront(std::size_t &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (indices.empty())
            return false;
        out = indices.front();
        indices.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (indices.empty())
            return false;
        out = indices.back();
        indices.pop_back();
        return true;
    }
};

SimResult
cancelledResult(const char *why)
{
    SimResult out;
    out.failed = true;
    out.error.kind = SimErrorKind::Cancelled;
    out.error.message = why;
    out.failureReason = out.error.toString();
    return out;
}

} // namespace

SimResult
ParallelRunner::runCaptured(const Job &job)
{
    try {
        return job();
    } catch (const SimException &e) {
        SimResult out;
        out.failed = true;
        out.error = e.error();
        out.failureReason = out.error.toString();
        return out;
    } catch (const std::exception &e) {
        SimResult out;
        out.failed = true;
        out.error.kind = SimErrorKind::WorkerException;
        out.error.message = e.what();
        out.failureReason = out.error.toString();
        return out;
    } catch (...) {
        SimResult out;
        out.failed = true;
        out.error.kind = SimErrorKind::WorkerException;
        out.error.message = "unknown exception escaped a parallel job";
        out.failureReason = out.error.toString();
        return out;
    }
}

ParallelRunner::ParallelRunner(ParallelOptions options) : options_(options)
{
}

unsigned
ParallelRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("FINEREG_JOBS")) {
        const long parsed = std::atol(env);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ParallelRunner::Outcome
ParallelRunner::runAll(std::vector<Job> jobs)
{
    const auto batch_start = Clock::now();

    Outcome outcome;
    outcome.results.resize(jobs.size());
    outcome.wallMs.assign(jobs.size(), 0.0);
    outcome.jobsUsed =
        std::min<std::size_t>(resolveJobs(options_.jobs),
                              std::max<std::size_t>(jobs.size(), 1));
    if (jobs.empty()) {
        outcome.totalWallMs = elapsedMs(batch_start);
        return outcome;
    }

    std::atomic<bool> cancel{false};
    const bool fail_fast = options_.failFast;

    auto run_at = [&](std::size_t index) {
        if (fail_fast && cancel.load(std::memory_order_acquire)) {
            outcome.results[index] = cancelledResult(
                "cancelled by fail-fast after an earlier failure");
            return;
        }
        const auto start = Clock::now();
        SimResult result = runCaptured(jobs[index]);
        outcome.wallMs[index] = elapsedMs(start);
        if (fail_fast && result.failed)
            cancel.store(true, std::memory_order_release);
        outcome.results[index] = std::move(result);
    };

    if (outcome.jobsUsed <= 1) {
        // Degenerate serial path: same wrapper, same ordering, no threads.
        for (std::size_t i = 0; i < jobs.size(); ++i)
            run_at(i);
    } else {
        const unsigned workers = outcome.jobsUsed;
        std::vector<WorkQueue> queues(workers);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            queues[i % workers].indices.push_back(i);

        auto worker_loop = [&](unsigned self) {
            std::size_t index = 0;
            for (;;) {
                bool found = queues[self].popFront(index);
                for (unsigned delta = 1; !found && delta < workers;
                     ++delta)
                    found = queues[(self + delta) % workers]
                                .stealBack(index);
                if (!found)
                    return;
                run_at(index);
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w)
            threads.emplace_back(worker_loop, w);
        worker_loop(0);
        for (auto &thread : threads)
            thread.join();
    }

    outcome.cancelled = fail_fast && cancel.load(std::memory_order_acquire);
    outcome.totalWallMs = elapsedMs(batch_start);
    return outcome;
}

std::vector<SimResult>
ParallelRunner::run(std::vector<Job> jobs)
{
    return runAll(std::move(jobs)).results;
}

} // namespace finereg
