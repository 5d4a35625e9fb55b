#include "core/experiment.hh"

#include <chrono>
#include <iterator>

#include "common/log.hh"

namespace finereg
{

SimResult
Experiment::runApp(const std::string &abbrev, const GpuConfig &config,
                   double grid_scale)
{
    const SuiteEntry &app = Suite::byName(abbrev);
    const auto kernel = Suite::makeKernel(app, grid_scale);
    return Simulator::run(config, *kernel);
}

std::vector<SimResult>
Experiment::runSuite(const GpuConfig &config, double grid_scale,
                     unsigned jobs)
{
    auto sweep = runSweep({config}, grid_scale, jobs);
    return std::move(sweep.front());
}

std::vector<std::vector<SimResult>>
Experiment::runSweep(const std::vector<GpuConfig> &configs,
                     double grid_scale, unsigned jobs)
{
    const auto &apps = Suite::all();
    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(configs.size() * apps.size());
    for (const auto &config : configs) {
        for (const auto &app : apps) {
            matrix.push_back([config, abbrev = app.abbrev, grid_scale] {
                return runApp(abbrev, config, grid_scale);
            });
        }
    }

    ParallelRunner runner(jobs);
    std::vector<SimResult> flat = runner.run(std::move(matrix));

    std::vector<std::vector<SimResult>> out(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        out[c].assign(
            std::make_move_iterator(flat.begin() + c * apps.size()),
            std::make_move_iterator(flat.begin() + (c + 1) * apps.size()));
    }
    return out;
}

ParallelRunner::Job
Experiment::makeSweepJob(std::shared_ptr<const Kernel> kernel,
                         const GpuConfig &config, std::string app,
                         SweepJournal *journal)
{
    if (!journal) {
        return [kernel = std::move(kernel), config] {
            return Simulator::run(config, *kernel);
        };
    }

    std::string key = makeSweepJobKey(*kernel, config).toString();
    const JournalEntry *prev = journal->find(key);
    if (prev && prev->ok())
        return [result = prev->result] { return result; };

    return [kernel = std::move(kernel), config, app = std::move(app),
            key = std::move(key), journal] {
        const auto start = std::chrono::steady_clock::now();
        SimResult result = Simulator::run(config, *kernel);
        JournalEntry entry;
        entry.key = key;
        entry.app = app;
        entry.status = result.failed ? "failed" : "ok";
        entry.wallMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        entry.result = result;
        // Journal entries carry condensed stats only.
        entry.result.archState.reset();
        entry.result.stallDiagnostic.clear();
        journal->append(entry);
        return result;
    };
}

GpuConfig
Experiment::configFor(PolicyKind kind)
{
    GpuConfig config = GpuConfig::gtx980();
    config.policy.kind = kind;
    return config;
}

} // namespace finereg
