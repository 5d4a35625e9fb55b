/**
 * @file
 * perfbench_run — the simulator benchmark. Runs one named workload
 * serially in this process (one worker, one cell at a time), for a fixed
 * measuring time, then checks the simulated outputs and prints every
 * metric by name and unit. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
 * are the end-to-end ones, with --trace 1 the per-layer ones from traced
 * passes. Exits 1 when any correctness check fails.
 *
 *   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
 *                 [--spans-out FILE]
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "ref/diff_oracle.hh"
#include "ref/ref_executor.hh"
#include "workloads/suite.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

/**
 * Cells diff-checked per run. A checked cell costs about four
 * times its timed run (value tracking plus the reference executor), so a
 * full check of switching-suite would outlast the run; consecutive seeds
 * rotate the slice across every cell instead.
 */
constexpr std::size_t kDiffCellsPerRun = 3;

void
printUsage()
{
    std::fputs("usage: perfbench_run --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "                     [--spans-out FILE]\nworkloads:",
               stderr);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fputc('\n', stderr);
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.trace = value == "1";
        } else if (arg == "--spans-out") {
            opt.spansOut = value;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !opt.workload.empty();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Peak resident set of this process image (VmHWM). Unlike getrusage's
 * ru_maxrss, it does not carry over the parent's peak across exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0.0;
}

/** Metrics in print order: name -> (value, unit). */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        order_.push_back(name);
        values_[name] = {value, unit};
    }

    double value(const std::string &name) const
    {
        return values_.at(name).first;
    }

    void
    print() const
    {
        for (const std::string &name : order_) {
            const auto &[value, unit] = values_.at(name);
            std::printf("  %-28s %18.6f %s\n", name.c_str(), value,
                        unit.c_str());
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (const std::string &name : order_) {
            const auto &[value, unit] = values_.at(name);
            char buf[96];
            std::snprintf(buf, sizeof buf, "%.17g", value);
            out += (out.size() > 1 ? "," : "") + std::string("\"") + name +
                   "\":{\"value\":" + buf + ",\"unit\":\"" + unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Tallies the correctness checks; each failed cell counts once. */
class Checker
{
  public:
    explicit Checker(std::size_t cells) : cellFailed_(cells, false) {}

    void
    fail(std::size_t cell, const std::string &why)
    {
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
        cellFailed_.at(cell) = true;
    }

    bool failed(std::size_t cell) const { return cellFailed_.at(cell); }

    std::size_t
    failedCells() const
    {
        return std::count(cellFailed_.begin(), cellFailed_.end(), true);
    }

  private:
    std::vector<bool> cellFailed_;
};

std::string
cellName(const Workload &workload, std::size_t i)
{
    const Cell &cell = workload.cells[i];
    return finereg::Suite::all()[cell.app].abbrev + "/" + cell.label;
}

/** Every cell completed: no SimError, no cycle cap, every CTA retired,
 * stats captured. */
void
checkCompleted(const Workload &workload, const KernelSet &kernels,
               const PassResult &pass, Checker &check)
{
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const CellResult &c = pass.cells[i];
        const unsigned grid = kernels[workload.cells[i].app]->gridCtas();
        if (c.sim.failed)
            check.fail(i, cellName(workload, i) + ": " +
                              c.sim.failureReason);
        else if (c.sim.hitCycleLimit || c.sim.completedCtas != grid)
            check.fail(i, cellName(workload, i) + ": incomplete (" +
                              std::to_string(c.sim.completedCtas) + "/" +
                              std::to_string(grid) + " CTAs)");
        else if (!c.stats.captured)
            check.fail(i, cellName(workload, i) + ": no stats captured");
    }
}

/** Two passes of the same cells simulated exactly the same thing: each
 * cell's cycles, instructions and fingerprint agree. */
void
checkSamePass(const Workload &workload, const PassResult &a,
              const PassResult &b, const char *what, Checker &check)
{
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const CellResult &x = a.cells[i];
        const CellResult &y = b.cells[i];
        if (x.sim.cycles != y.sim.cycles ||
            x.sim.instructions != y.sim.instructions ||
            cellFingerprint(x, 0) != cellFingerprint(y, 0)) {
            check.fail(i, cellName(workload, i) + ": " + what +
                              " differs in cycles, instructions or stats");
        }
    }
}

/**
 * Differential check of every ceil(cells / kDiffCellsPerRun)-th cell,
 * rotated by the seed: the cell's architectural end state must match the
 * reference executor. The reference runs once per app.
 */
std::size_t
diffCheck(const Workload &workload, const KernelSet &kernels,
          const Options &opt, Checker &check)
{
    const std::size_t n = workload.cells.size();
    const std::size_t stride = (n + kDiffCellsPerRun - 1) / kDiffCellsPerRun;
    std::map<std::size_t, finereg::ArchState> refs;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if ((i + opt.seed) % stride != 0)
            continue;
        const Cell &cell = workload.cells[i];
        const finereg::Kernel &kernel = *kernels[cell.app];
        auto ref = refs.find(cell.app);
        if (ref == refs.end()) {
            ref = refs.emplace(cell.app, finereg::RefExecutor::execute(
                                             kernel, cell.config.seed))
                      .first;
        }
        const finereg::Divergence d = finereg::DiffOracle::checkPolicy(
            kernel, cell.config, cell.config.policy.kind, ref->second);
        if (d.any())
            check.fail(i, cellName(workload, i) + ": " + d.toString());
        ++checked;
    }
    return checked;
}

/** Geomean over apps of ratio(cell) for the cells labelled @p label; 0
 * when there are none or a ratio is undefined (0). */
template <typename Ratio>
double
geomeanOver(const Workload &workload, const std::string &label,
            Ratio ratio)
{
    std::vector<double> values;
    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
        if (workload.cells[i].label != label)
            continue;
        values.push_back(ratio(i));
        if (!(values.back() > 0.0))
            return 0.0;
    }
    return values.empty() ? 0.0 : finereg::geomean(values);
}

/** Sum of a model counter over every cell of a pass. */
double
counterSum(const PassResult &pass, const std::string &name)
{
    double sum = 0.0;
    for (const CellResult &c : pass.cells)
        sum += static_cast<double>(c.stats.counter(name));
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Host-time metrics of one traced pass, from its spans. The sweep's self
 * time is the Pass and Cell spans' self time (the harness around each
 * Simulator::run); the SM loop's is the SimRun spans' self time (the run
 * minus its policy calls).
 */
std::map<std::string, double>
tracedTimes(const Workload &workload, const PassResult &pass,
            const SpanRecorder &spans)
{
    std::map<std::string, double> t;
    double sim_run = 0.0;
    double cell_max = 0.0;
    double sweep_self = 0.0;
    double loop_self = 0.0;
    for (const Span &span : spans.spans()) {
        if (span.kind != Span::Kind::SimRun) {
            sweep_self += spans.selfSeconds(span.id);
            continue;
        }
        sim_run += span.seconds();
        cell_max = std::max(cell_max, span.seconds());
        loop_self += spans.selfSeconds(span.id);
        t["policies." + workload.cells[span.cell - 1].label + ".wall_s"] +=
            span.seconds();
    }
    PolicyCallTotals calls;
    for (const auto &[cell, totals] : spans.callTotals()) {
        for (std::size_t k = 0; k < kPolicyCalls; ++k) {
            calls.calls[k] += totals.calls[k];
            calls.ns[k] += totals.ns[k];
        }
    }
    t["core.sim_run_s"] = sim_run;
    t["core.sweep_self_s"] = sweep_self;
    t["core.cell_max_s"] = cell_max;
    for (std::size_t k = 0; k < kPolicyCalls; ++k) {
        t[std::string("policies.") +
          policyCallName(static_cast<PolicyCall>(k)) + "_s"] =
            calls.seconds(static_cast<PolicyCall>(k));
    }
    t["policies.calls"] = static_cast<double>(calls.totalCalls());
    t["policies.share"] = ratio(calls.totalSeconds(), sim_run);
    t["sm.loop_self_s"] = loop_self;
    t["sm.ns_per_loop_iteration"] =
        ratio(loop_self * 1e9, counterSum(pass, "gpu.loop_iterations"));
    t["pass.wall_s"] = pass.wallSeconds;
    return t;
}

/** Paper Fig. 13 geomean IPC speedups the model report sets beside ours. */
struct PaperRef
{
    const char *metric;
    const char *num;
    const char *den;
    double paper;
};
constexpr PaperRef kPaperRefs[] = {
    {"model.finereg.ipc_speedup", "finereg", "baseline", 1.328},
    {"model.finereg_over_vt", "finereg", "vt", 1.185},
    {"model.finereg_over_regdram", "finereg", "regdram", 1.128},
    {"model.finereg_over_regmutex", "finereg", "regmutex", 1.071},
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    Workload workload;
    if (!parseArgs(argc, argv, opt) ||
        !makeWorkload(opt.workload, opt.seed, workload)) {
        printUsage();
        return 2;
    }
    const std::size_t ncells = workload.cells.size();
    const Clock::time_point run_start = Clock::now();

    // --- Set-up: kernel build + config construction, repeated; median. ---
    std::vector<double> setup_times;
    std::vector<double> build_times;
    KernelSet kernels;
    while (setup_times.size() < 7 ||
           (secondsSince(run_start) < 0.5 && setup_times.size() < 200)) {
        const Clock::time_point t0 = Clock::now();
        kernels = buildKernels(1.0);
        build_times.push_back(secondsSince(t0));
        Workload fresh;
        makeWorkload(opt.workload, opt.seed, fresh);
        setup_times.push_back(secondsSince(t0));
    }
    const double setup_s = median(setup_times);
    const double kernel_build_s = median(build_times);

    // --- Measured passes. Trace 0: untimed passes for --seconds. Trace 1:
    // alternate untimed and traced passes for --seconds. At least one of
    // each; after that a round starts only if it is predicted to end less
    // than half a round past --seconds, so the measured time is as close
    // to --seconds as whole rounds allow. ---
    std::vector<PassResult> untimed;
    std::vector<PassResult> traced;
    std::vector<SpanRecorder> traced_spans;
    const Clock::time_point measure_start = Clock::now();
    double slowest_round = 0.0;
    // Heap fragmentation grows the peak slightly with every pass, so it is
    // read after the first, which every run makes.
    double rss_mb = 0.0;
    while (untimed.empty() ||
           secondsSince(measure_start) + slowest_round / 2 <= opt.seconds) {
        const Clock::time_point round = Clock::now();
        untimed.push_back(runPass(workload, kernels));
        if (opt.trace) {
            traced_spans.emplace_back();
            traced.push_back(runPass(workload, kernels, &traced_spans.back()));
        }
        slowest_round = std::max(slowest_round, secondsSince(round));
        if (untimed.size() == 1)
            rss_mb = peakRssMb();
        std::fprintf(stderr, "perfbench: pass %zu: %.3f s", untimed.size(),
                     untimed.back().wallSeconds);
        if (opt.trace)
            std::fprintf(stderr, ", traced %.3f s", traced.back().wallSeconds);
        std::fputc('\n', stderr);
    }
    const double measured_s = secondsSince(measure_start);

    // --- Correctness, outside the timed passes. ---
    Checker check(ncells);
    for (const PassResult &pass : untimed) {
        checkCompleted(workload, kernels, pass, check);
        checkSamePass(workload, untimed.front(), pass,
                      "repeated untimed pass", check);
    }
    for (const PassResult &pass : traced) {
        checkCompleted(workload, kernels, pass, check);
        checkSamePass(workload, untimed.front(), pass,
                      "traced vs untimed pass", check);
    }

    // Per-app warp-instruction counts must not depend on the policy. A
    // workload running several policies is checked against itself; one
    // running a single policy against Baseline cells of the same seed,
    // which the traced run's model report needs anyway.
    const PassResult &first = untimed.front();
    std::vector<std::uint64_t> app_instrs(finereg::Suite::all().size(), 0);
    std::vector<std::string> instr_source(app_instrs.size());
    std::vector<double> base_ipc(app_instrs.size(), 0.0);
    const bool one_policy =
        std::all_of(workload.cells.begin(), workload.cells.end(),
                    [&](const Cell &c) {
                        return c.label == workload.cells.front().label;
                    });
    if (opt.trace || one_policy) {
        Workload baseline;
        makeWorkload("baseline-suite", opt.seed, baseline);
        const PassResult base_pass = opt.workload == baseline.name
                                         ? first
                                         : runPass(baseline, kernels);
        Checker base_check(baseline.cells.size());
        checkCompleted(baseline, kernels, base_pass, base_check);
        for (std::size_t i = 0; i < base_pass.cells.size(); ++i) {
            const std::size_t app = baseline.cells[i].app;
            if (base_check.failed(i))
                continue; // Its app's cells fail the comparison below.
            app_instrs[app] = base_pass.cells[i].sim.instructions;
            instr_source[app] = "Baseline";
            base_ipc[app] = base_pass.cells[i].sim.ipc;
        }
    }
    for (std::size_t i = 0; i < ncells; ++i) {
        const std::size_t app = workload.cells[i].app;
        const std::uint64_t instrs = first.cells[i].sim.instructions;
        if (instr_source[app].empty() && (opt.trace || one_policy)) {
            check.fail(i, cellName(workload, i) +
                              ": its Baseline reference cell failed");
        } else if (instr_source[app].empty()) {
            app_instrs[app] = instrs;
            instr_source[app] = workload.cells[i].label;
        } else if (instrs != app_instrs[app]) {
            check.fail(i, cellName(workload, i) + ": " +
                              std::to_string(instrs) + " warp-instructions, " +
                              instr_source[app] + " ran " +
                              std::to_string(app_instrs[app]));
        }
    }
    const std::size_t diff_checked =
        diffCheck(workload, kernels, opt, check);

    // --- Report. ---
    // Each cell's fastest time over the run's untimed passes, summed. The
    // host is shared, and interference only ever slows a cell down.
    double wall_s = 0.0;
    for (std::size_t i = 0; i < ncells; ++i) {
        double best = untimed.front().cells[i].wallSeconds;
        for (const PassResult &p : untimed)
            best = std::min(best, p.cells[i].wallSeconds);
        wall_s += best;
    }
    std::printf("perfbench: workload %s, seed %" PRIu64
                ", %zu cells, serial, 1 worker\n",
                workload.name.c_str(), opt.seed, ncells);
    std::printf("perfbench: %zu untimed + %zu traced passes in %.3f s; "
                "%zu cells diff-checked against the reference executor\n",
                untimed.size(), traced.size(), measured_s, diff_checked);
    std::printf("perfbench: stats fingerprint %016" PRIx64 "\n",
                first.fingerprint);

    MetricSet metrics;
    if (!opt.trace) {
        metrics.add("wall_s", wall_s, "s");
        metrics.add("sim_minstr_per_s", first.instructions / wall_s / 1e6,
                    "Minstr/s");
        metrics.add("sim_kcycles_per_s", first.cycles / wall_s / 1e3,
                    "kcycles/s");
        metrics.add("setup_s", setup_s, "s");
        metrics.add("peak_rss_mb", rss_mb, "MB");
    } else {
        std::vector<std::map<std::string, double>> per_pass;
        for (std::size_t p = 0; p < traced.size(); ++p)
            per_pass.push_back(
                tracedTimes(workload, traced[p], traced_spans[p]));
        auto host = [&](const std::string &name) {
            std::vector<double> v;
            for (const auto &t : per_pass)
                v.push_back(t.count(name) ? t.at(name) : 0.0);
            return median(v);
        };
        auto count = [&](const std::string &name) {
            return counterSum(first, name);
        };

        metrics.add("workloads.kernel_build_s", kernel_build_s, "s");
        for (const char *name :
             {"core.sim_run_s", "core.sweep_self_s", "core.cell_max_s",
              "policies.tick_s", "policies.next_event_s",
              "policies.depletion_check_s", "policies.cta_finished_s"})
            metrics.add(name, host(name), "s");
        metrics.add("policies.calls", host("policies.calls"), "count");
        metrics.add("policies.share", host("policies.share"), "ratio");
        for (const std::string &label : policyLabels()) {
            const std::string name = "policies." + label + ".wall_s";
            metrics.add(name, host(name), "s");
        }
        metrics.add("sm.loop_self_s", host("sm.loop_self_s"), "s");
        metrics.add("sm.ns_per_loop_iteration",
                    host("sm.ns_per_loop_iteration"), "ns");
        for (const char *name :
             {"gpu.loop_iterations", "gpu.skipped_cycles", "gpu.wheel_pushes",
              "rmu.gathers", "pcrf.stored_ctas", "pcrf.restored_ctas",
              "rmu.bitvec_word_ops", "pcrf.writes"})
            metrics.add(name, count(name), "count");
        const double bv_hits = count("bitvec_cache.hits");
        metrics.add("bitvec_cache.hit_rate",
                    ratio(bv_hits, bv_hits + count("bitvec_cache.misses")),
                    "ratio");
        metrics.add("rmu.gather_yield",
                    ratio(count("pcrf.stored_ctas"), count("rmu.gathers")),
                    "ratio");
        for (const char *name :
             {"finereg.stalled_found", "finereg.no_partner",
              "verify.full_audits", "verify.edge_audits"})
            metrics.add(name, count(name), "count");

        double data = 0, ctx = 0, bitvec = 0, l1_hits = 0, l1_all = 0;
        finereg::EnergyBreakdown energy;
        std::vector<double> ipcs;
        for (const CellResult &c : first.cells) {
            data += c.sim.dramBytesData;
            ctx += c.sim.dramBytesCtaContext;
            bitvec += c.sim.dramBytesBitvec;
            l1_hits += c.sim.l1Hits;
            l1_all += c.sim.l1Hits + c.sim.l1Misses;
            energy.dramDyn += c.sim.energy.dramDyn;
            energy.rfDyn += c.sim.energy.rfDyn;
            energy.othersDyn += c.sim.energy.othersDyn;
            energy.leakage += c.sim.energy.leakage;
            energy.fineregOverhead += c.sim.energy.fineregOverhead;
            energy.ctaSwitching += c.sim.energy.ctaSwitching;
            ipcs.push_back(c.sim.ipc);
        }
        metrics.add("dram.bytes_data", data, "B");
        metrics.add("dram.bytes_cta_context", ctx, "B");
        metrics.add("dram.bytes_bitvec", bitvec, "B");
        metrics.add("l1.hit_rate", ratio(l1_hits, l1_all), "ratio");
        metrics.add("energy.total", energy.total(), "eu");
        metrics.add("energy.rf_dyn", energy.rfDyn, "eu");
        metrics.add("energy.dram_dyn", energy.dramDyn, "eu");
        metrics.add("energy.finereg_overhead", energy.fineregOverhead, "eu");
        metrics.add("energy.cta_switching", energy.ctaSwitching, "eu");
        metrics.add("sim.cycles", static_cast<double>(first.cycles),
                    "cycles");
        metrics.add("sim.warp_instrs", static_cast<double>(first.instructions),
                    "count");
        metrics.add("sim.ipc_geomean", finereg::geomean(ipcs), "ipc");
        const double untimed_wall = median([&] {
            std::vector<double> v;
            for (const PassResult &p : untimed)
                v.push_back(p.wallSeconds);
            return v;
        }());
        metrics.add("trace.overhead_pct",
                    100.0 * (host("pass.wall_s") / untimed_wall - 1.0), "%");

        // Model report: geomean over apps of IPC(num) / IPC(den), where
        // num is this workload's policy and den Baseline or another policy
        // of this workload (0 when it has no such cells).
        auto ipc_of = [&](const std::string &label, std::size_t app) {
            if (label == "baseline")
                return base_ipc[app];
            for (std::size_t i = 0; i < ncells; ++i) {
                if (workload.cells[i].label == label &&
                    workload.cells[i].app == app)
                    return first.cells[i].sim.ipc;
            }
            return 0.0;
        };
        auto model_ratio = [&](const std::string &num, const std::string &den) {
            return geomeanOver(workload, num, [&](std::size_t i) {
                return ratio(first.cells[i].sim.ipc,
                             ipc_of(den, workload.cells[i].app));
            });
        };
        for (const std::string &label : policyLabels()) {
            if (label != "baseline")
                metrics.add("model." + label + ".ipc_speedup",
                            model_ratio(label, "baseline"), "ratio");
        }
        for (const PaperRef &ref : kPaperRefs) {
            if (std::string(ref.den) != "baseline") // Reported just above.
                metrics.add(ref.metric, model_ratio(ref.num, ref.den),
                            "ratio");
        }
        metrics.add("cells_failed",
                    ratio(check.failedCells(), static_cast<double>(ncells)),
                    "ratio");

        // The paper's values hold only for the default ACRF/PCRF split.
        std::printf("perfbench: model report (unvalidated: no hardware "
                    "reference; geomean IPC ratios%s)\n",
                    workload.defaultSplit
                        ? ", paper Fig. 13 beside"
                        : "; this workload's ACRF/PCRF split is not Fig. "
                          "13's, so no paper value applies");
        for (const PaperRef &ref : kPaperRefs) {
            const double v = metrics.value(ref.metric);
            if (!(v > 0.0))
                continue;
            std::printf("  %-28s %8.3f", ref.metric, v);
            if (workload.defaultSplit)
                std::printf("   paper %.3f", ref.paper);
            std::fputc('\n', stdout);
        }

        if (!opt.spansOut.empty()) {
            std::ofstream out(opt.spansOut);
            out << traced_spans.back().toJson() << '\n';
            if (!out) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opt.spansOut.c_str());
                return 2;
            }
        }
    }

    std::printf("perfbench: %s metrics\n",
                opt.trace ? "per-layer (traced)" : "end-to-end (untimed)");
    metrics.print();

    const bool correct = check.failedCells() == 0;
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false", ncells, check.failedCells(),
                metrics.json().c_str());
    return correct ? 0 : 1;
}
