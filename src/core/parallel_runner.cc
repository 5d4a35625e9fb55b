#include "core/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "common/log.hh"
#include "core/cli_options.hh"
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

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

unsigned
ParallelRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const char *env = std::getenv("FINEREG_JOBS");
    if (!env)
        return hw;
    const std::optional<unsigned> parsed = parseNumber<unsigned>(env);
    if (parsed && *parsed > 0)
        return *parsed;
    FINEREG_WARN("FINEREG_JOBS='", env, "' is not a positive integer; using ",
                 hw, " hardware threads");
    return hw;
}

ParallelRunner::Outcome
ParallelRunner::runAll(std::vector<Job> jobs)
{
    const auto batch_start = Clock::now();

    Outcome outcome;
    outcome.results.resize(jobs.size());
    outcome.wallMs.assign(jobs.size(), 0.0);

    // Every job is known up front and each is a whole simulation, so
    // workers simply claim the next unclaimed index until none is left.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
            const auto start = Clock::now();
            outcome.results[i] = runCaptured(jobs[i]);
            outcome.wallMs[i] = elapsedMs(start);
        }
    };

    // The calling thread is one of the workers, so one worker (or one
    // job) runs everything inline without starting a thread.
    const std::size_t workers = std::min<std::size_t>(jobs_, jobs.size());
    std::vector<std::jthread> helpers;
    helpers.reserve(workers);
    for (std::size_t w = 1; w < workers; ++w)
        helpers.emplace_back(worker);
    worker();
    helpers.clear(); // joins every helper

    outcome.totalWallMs = elapsedMs(batch_start);
    return outcome;
}

std::vector<SimResult>
ParallelRunner::run(std::vector<Job> jobs)
{
    return runAll(std::move(jobs)).results;
}

} // namespace finereg
