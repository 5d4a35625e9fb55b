/**
 * @file
 * finereg_experiments — the paper's evaluation (Tables I-III, Figs. 2-5
 * and 12-19, plus the design ablations) as one registry and one driver.
 *
 * A cell is one simulation: one app, one config, one grid scale. Each
 * registry entry lists the cells its report needs and prints a
 * measured-vs-paper report from their results. The driver keys every cell
 * by its content-addressed sweep-job key (makeSweepJobKey), so a cell that
 * several experiments share is simulated once. It works in waves: an entry
 * may ask for cells sized from earlier results (Fig. 18's
 * Baseline+Resource configs follow FineReg's measured residency), so after
 * every wave the driver asks each entry again, until no entry asks for a
 * cell it has not seen.
 *
 * usage: finereg_experiments [ID...]   (no ids: every experiment)
 *
 * FINEREG_BENCH_SCALE overrides every entry's default grid scale and
 * FINEREG_JOBS sets the worker count; stdout is the same for every worker
 * count. Reports go to stdout in registry order. Exit status: 0 on
 * success, 1 when a cell fails or hits the cycle cap (no report is
 * printed), 2 on an unknown id or a malformed FINEREG_BENCH_SCALE.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "compiler/live_info.hh"
#include "core/cli_options.hh"
#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/sweep_journal.hh"
#include "workloads/suite.hh"

using namespace finereg;

namespace
{

/** One simulation; the label is unique across the registry. */
struct Cell
{
    std::string label;
    std::string app;
    GpuConfig config;
    double scale;
};

using Cells = std::vector<Cell>;

/** Cell results so far, by label. */
using Results = std::map<std::string, SimResult>;

const SimResult &
get(const Results &results, const std::string &label)
{
    const auto it = results.find(label);
    if (it == results.end())
        FINEREG_FATAL("experiment result '", label, "' missing");
    return it->second;
}

const PolicyKind kPolicies[] = {
    PolicyKind::Baseline, PolicyKind::VirtualThread, PolicyKind::RegDram,
    PolicyKind::RegMutex, PolicyKind::FineReg,
};

/** The reports' names for kPolicies (not policyKindName's spelling). */
const char *kPolicyNames[] = {"Baseline", "VirtualThread", "RegDram",
                              "RegMutex", "FineReg"};

/** A cell per suite app per policy, labelled "<id>/<app>/<policy>". */
Cells
policyCells(const std::string &id, double scale)
{
    Cells cells;
    for (const auto &app : Suite::all()) {
        for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
            cells.push_back({id + "/" + app.abbrev + "/" + kPolicyNames[i],
                             app.abbrev, Experiment::configFor(kPolicies[i]),
                             scale});
        }
    }
    return cells;
}

// ---- Table I: simulation setup -------------------------------------------

void
reportTable1(double, const Results &)
{
    std::printf("%s", GpuConfig::gtx980().toString().c_str());

    // The FineReg policy defaults of Sec. VI-A.
    const GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
    std::printf("\nFineReg defaults (Sec. VI-A):\n");
    std::printf("ACRF size                   %lluKB\n",
                static_cast<unsigned long long>(
                    config.policy.acrfBytes / 1024));
    std::printf("PCRF size                   %lluKB (half the RF)\n",
                static_cast<unsigned long long>(
                    config.policy.pcrfBytes / 1024));
    std::printf("Bit-vector cache            %u entries\n",
                config.policy.bitvecCacheEntries);
}

// ---- Table II: the 18 applications and what limits each ------------------

void
reportTable2(double, const Results &)
{
    const GpuConfig config = GpuConfig::gtx980();
    TableFormatter table({"app", "full name", "suite", "type", "regs/thr",
                          "thr/CTA", "shmem", "sched-limit", "mem-limit",
                          "binding"});
    for (const auto &app : Suite::all()) {
        const auto kernel = Suite::makeKernel(app);
        const unsigned sched_limit = std::min(
            {config.sm.maxCtas,
             config.sm.maxWarps / kernel->warpsPerCta(),
             config.sm.maxThreads / kernel->threadsPerCta()});
        unsigned mem_limit = static_cast<unsigned>(
            config.sm.regFileBytes / kernel->regBytesPerCta());
        if (kernel->shmemPerCta() > 0) {
            mem_limit = std::min<unsigned>(
                mem_limit, config.sm.shmemBytes / kernel->shmemPerCta());
        }
        table.addRow(
            {app.abbrev, app.fullName, app.origin,
             app.typeR() ? "Type-R" : "Type-S",
             std::to_string(kernel->regsPerThread()),
             std::to_string(kernel->threadsPerCta()),
             std::to_string(kernel->shmemPerCta() / 1024) + "KB",
             std::to_string(sched_limit), std::to_string(mem_limit),
             mem_limit < sched_limit ? "RF/shmem" : "scheduler"});
    }
    std::printf("%s", table.render().c_str());
}

// ---- Table III: CTA execution time until complete stall ------------------

/** Paper's Table III values (cycles). */
const std::map<std::string, unsigned> kPaperStallCycles = {
    {"MC", 1525}, {"ST", 1503}, {"KM", 892},  {"SY2", 1245},
    {"BI", 1338}, {"BF", 193},  {"NW", 311},  {"CS", 512},
    {"FD", 2018}, {"LI", 1021}, {"LB", 828},  {"CF", 955},
    {"SG", 2299}, {"HS", 752},  {"AT", 1272}, {"SR2", 774},
    {"TA", 1054}, {"TR", 775},
};

Cells
cellsTable3(double scale, const Results &)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.stallProbe = true;
    Cells cells;
    for (const auto &app : Suite::all())
        cells.push_back({"table3/" + app.abbrev, app.abbrev, config, scale});
    return cells;
}

void
reportTable3(double, const Results &results)
{
    TableFormatter table(
        {"app", "measured (cycles)", "paper (cycles)", "episodes"});
    double min_measured = 1e12, max_measured = 0.0;
    for (const auto &app : Suite::all()) {
        const auto &r = get(results, "table3/" + app.abbrev);
        min_measured = std::min(min_measured, r.stallEpisodeMean);
        max_measured = std::max(max_measured, r.stallEpisodeMean);
        table.addRow({app.abbrev,
                      TableFormatter::num(r.stallEpisodeMean, 0),
                      std::to_string(kPaperStallCycles.at(app.abbrev)),
                      std::to_string(r.stallEpisodes)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nMeasured range: %.0f-%.0f cycles (paper: 193-2,299). "
                "Every app fully stalls within a few thousand cycles,\n"
                "confirming the case for CTA switching (Sec. IV-C).\n",
                min_measured, max_measured);
}

// ---- Fig. 2: scaling scheduling resources vs on-chip memory --------------

struct Fig2Variant
{
    const char *name;
    double sched;
    double mem;
};

const Fig2Variant kFig2Variants[] = {
    {"base", 1.0, 1.0},      {"sched1.5", 1.5, 1.0},
    {"sched2", 2.0, 1.0},    {"mem1.5", 1.0, 1.5},
    {"mem2", 1.0, 2.0},      {"both1.5", 1.5, 1.5},
    {"both2", 2.0, 2.0},
};

GpuConfig
fig2Config(const Fig2Variant &v)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.sm.maxCtas = static_cast<unsigned>(config.sm.maxCtas * v.sched);
    config.sm.maxWarps =
        static_cast<unsigned>(config.sm.maxWarps * v.sched);
    config.sm.maxThreads =
        static_cast<unsigned>(config.sm.maxThreads * v.sched);
    config.sm.regFileBytes =
        static_cast<std::uint64_t>(config.sm.regFileBytes * v.mem);
    config.sm.shmemBytes =
        static_cast<std::uint64_t>(config.sm.shmemBytes * v.mem);
    return config;
}

Cells
cellsFig2(double scale, const Results &)
{
    Cells cells;
    for (const auto &app : Suite::all()) {
        for (const auto &v : kFig2Variants) {
            cells.push_back({"fig02/" + app.abbrev + "/" + v.name,
                             app.abbrev, fig2Config(v), scale});
        }
    }
    return cells;
}

void
reportFig2(double, const Results &results)
{
    TableFormatter table({"app", "type", "sched1.5", "sched2", "mem1.5",
                          "mem2", "both1.5", "both2"});

    std::map<std::string, std::map<std::string, double>> speedups;
    for (const auto &app : Suite::all()) {
        const auto &base = get(results, "fig02/" + app.abbrev + "/base");
        std::vector<std::string> row{app.abbrev,
                                     app.typeR() ? "R" : "S"};
        for (const auto &v : kFig2Variants) {
            if (std::string(v.name) == "base")
                continue;
            const auto &r =
                get(results, "fig02/" + app.abbrev + "/" + v.name);
            const double x = Experiment::speedup(r, base);
            speedups[v.name][app.abbrev] = x;
            row.push_back(TableFormatter::num(x) + "x");
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());

    auto group_mean = [&](const char *variant, bool type_r) {
        std::vector<double> v;
        for (const auto &app : Suite::all()) {
            if (app.typeR() == type_r)
                v.push_back(speedups[variant][app.abbrev]);
        }
        return mean(v);
    };

    std::printf("\nGroup means (speedup over baseline):\n");
    std::printf("%-10s %-10s %-10s\n", "variant", "Type-S", "Type-R");
    for (const auto &v : kFig2Variants) {
        if (std::string(v.name) == "base")
            continue;
        std::printf("%-10s %-10.3f %-10.3f\n", v.name,
                    group_mean(v.name, false), group_mean(v.name, true));
    }
    std::printf("\nExpected shape: Type-S responds to 'sched', Type-R to "
                "'mem', both groups gain most from 'both'.\n");
}

// ---- Fig. 3: per-CTA on-chip memory overhead -----------------------------

void
reportFig3(double, const Results &)
{
    TableFormatter table(
        {"app", "regs (KB)", "shmem (KB)", "total (KB)", "reg share"});
    double reg_total = 0.0, all_total = 0.0;
    double min_total = 1e9, max_total = 0.0;
    for (const auto &app : Suite::all()) {
        const auto kernel = Suite::makeKernel(app);
        const double reg_kb = kernel->regBytesPerCta() / 1024.0;
        const double shmem_kb = kernel->shmemPerCta() / 1024.0;
        const double total = reg_kb + shmem_kb;
        reg_total += reg_kb;
        all_total += total;
        min_total = std::min(min_total, total);
        max_total = std::max(max_total, total);
        table.addRow({app.abbrev, TableFormatter::num(reg_kb),
                      TableFormatter::num(shmem_kb),
                      TableFormatter::num(total),
                      TableFormatter::pct(reg_kb / total)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nMeasured: %.1f-%.1f KB per CTA; registers %.1f%% of "
                "total (paper: 6-37.3 KB, 88.7%%)\n",
                min_total, max_total, 100.0 * reg_total / all_total);
}

// ---- Fig. 4: CS under Baseline / Full RF / Full RF+DRAM / Ideal ----------

GpuConfig
idealConfig()
{
    // Unlimited scheduling resources and on-chip memory.
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.sm.maxCtas = 4096;
    config.sm.maxWarps = 8192;
    config.sm.maxThreads = 1u << 20;
    config.sm.regFileBytes = 1ull << 30;
    config.sm.shmemBytes = 1ull << 30;
    config.sm.maxResidentCtas = 4096;
    config.sm.maxResidentWarps = 8192;
    return config;
}

Cells
cellsFig4(double scale, const Results &)
{
    return {
        {"fig04/baseline", "CS",
         Experiment::configFor(PolicyKind::Baseline), scale},
        {"fig04/full_rf", "CS",
         Experiment::configFor(PolicyKind::VirtualThread), scale},
        {"fig04/full_rf_dram", "CS",
         Experiment::configFor(PolicyKind::RegDram), scale},
        {"fig04/ideal", "CS", idealConfig(), scale},
    };
}

void
reportFig4(double, const Results &results)
{
    const auto &base = get(results, "fig04/baseline");
    TableFormatter table({"config", "norm. perf", "norm. active threads",
                          "resident CTAs"});
    for (const char *name :
         {"baseline", "full_rf", "full_rf_dram", "ideal"}) {
        const auto &r = get(results, std::string("fig04/") + name);
        table.addRow({name,
                      TableFormatter::num(Experiment::speedup(r, base)),
                      TableFormatter::num(r.avgActiveThreads /
                                          std::max(1.0,
                                                   base.avgActiveThreads)),
                      TableFormatter::num(r.avgResidentCtas, 1)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: full_rf > baseline, full_rf_dram adds "
                "little on top, ideal far above all.\n");
}

// ---- Fig. 5: register file usage in 1,000-instruction windows ------------

Cells
cellsFig5(double scale, const Results &)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    config.usageTracking = true;
    Cells cells;
    for (const auto &app : Suite::all())
        cells.push_back({"fig05/" + app.abbrev, app.abbrev, config, scale});
    return cells;
}

void
reportFig5(double scale, const Results &results)
{
    TableFormatter table({"app", "window avg", "window min", "window max",
                          "static live frac"});
    double sum = 0.0;
    for (const auto &app : Suite::all()) {
        const auto &r = get(results, "fig05/" + app.abbrev);
        const auto kernel = Suite::makeKernel(app, scale);
        LiveRegisterTable live(*kernel);
        sum += r.rfUsageMean;
        table.addRow({app.abbrev, TableFormatter::pct(r.rfUsageMean),
                      TableFormatter::pct(r.rfUsageMin),
                      TableFormatter::pct(r.rfUsageMax),
                      TableFormatter::pct(live.meanLiveFraction())});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nMeasured mean window usage: %.1f%% (paper: 55.3%%)\n",
                100.0 * sum / Suite::all().size());
}

// ---- Fig. 12: number of concurrent CTAs ----------------------------------

Cells
cellsFig12(double scale, const Results &)
{
    Cells cells = policyCells("fig12", scale);
    // Live-register vs full-context ablation.
    GpuConfig full_ctx = Experiment::configFor(PolicyKind::FineReg);
    full_ctx.policy.fullContextBackup = true;
    for (const auto &app : Suite::all()) {
        cells.push_back(
            {"fig12/" + app.abbrev + "/FullCtx", app.abbrev, full_ctx, scale});
    }
    return cells;
}

void
reportFig12(double, const Results &results)
{
    auto key = [](const std::string &app, const std::string &policy) {
        return "fig12/" + app + "/" + policy;
    };
    TableFormatter table({"app", "type", "Base", "VT", "Reg+DRAM",
                          "VT+RegMutex", "FineReg", "FineReg(fullctx)"});

    std::map<std::string, std::map<std::string, double>> ratios;
    for (const auto &app : Suite::all()) {
        const double base =
            get(results, key(app.abbrev, "Baseline")).avgResidentCtas;
        std::vector<std::string> row{app.abbrev, app.typeR() ? "R" : "S"};
        row.push_back(TableFormatter::num(base, 1));
        for (const char *policy : {"VirtualThread", "RegDram", "RegMutex",
                                   "FineReg", "FullCtx"}) {
            const double ctas =
                get(results, key(app.abbrev, policy)).avgResidentCtas;
            ratios[policy][app.abbrev] = ctas / std::max(base, 1e-9);
            row.push_back(TableFormatter::num(ctas, 1));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());

    auto group = [&](const char *policy, int type) {
        // type: 0 = all, 1 = Type-S, 2 = Type-R
        std::vector<double> v;
        for (const auto &app : Suite::all()) {
            if (type == 1 && app.typeR())
                continue;
            if (type == 2 && !app.typeR())
                continue;
            v.push_back(ratios[policy][app.abbrev]);
        }
        return mean(v);
    };

    std::printf("\nConcurrent-CTA growth over baseline (paper values in "
                "parentheses):\n");
    std::printf("  VT            all %+0.1f%% (+126.3%% Type-S)\n",
                100 * (group("VirtualThread", 0) - 1));
    std::printf("  Reg+DRAM      all %+0.1f%% (+155.9%%/+27.7%%)\n",
                100 * (group("RegDram", 0) - 1));
    std::printf("  VT+RegMutex   all %+0.1f%% (FineReg+11.5%%)\n",
                100 * (group("RegMutex", 0) - 1));
    std::printf("  FineReg       all %+0.1f%% (+141.7%%), Type-S %+0.1f%% "
                "(+203.8%%), Type-R %+0.1f%% (+79.8%%)\n",
                100 * (group("FineReg", 0) - 1),
                100 * (group("FineReg", 1) - 1),
                100 * (group("FineReg", 2) - 1));
    std::printf("  FineReg(fullctx ablation) all %+0.1f%% — full-context "
                "backup fits fewer pending CTAs in the PCRF\n",
                100 * (group("FullCtx", 0) - 1));
}

// ---- Fig. 13: normalized IPC (the headline comparison) -------------------

Cells
cellsFig13(double scale, const Results &)
{
    return policyCells("fig13", scale);
}

void
reportFig13(double, const Results &results)
{
    auto key = [](const std::string &app, const std::string &policy) {
        return "fig13/" + app + "/" + policy;
    };
    TableFormatter table({"app", "type", "base IPC", "VT", "Reg+DRAM",
                          "VT+RegMutex", "FineReg"});

    std::map<std::string, std::map<std::string, double>> x;
    for (const auto &app : Suite::all()) {
        const auto &base = get(results, key(app.abbrev, "Baseline"));
        std::vector<std::string> row{app.abbrev, app.typeR() ? "R" : "S",
                                     TableFormatter::num(base.ipc)};
        for (const char *policy :
             {"VirtualThread", "RegDram", "RegMutex", "FineReg"}) {
            const auto &r = get(results, key(app.abbrev, policy));
            x[policy][app.abbrev] = Experiment::speedup(r, base);
            row.push_back(
                TableFormatter::num(x[policy][app.abbrev]) + "x");
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());

    auto group = [&](const char *policy, int type) {
        std::vector<double> v;
        for (const auto &app : Suite::all()) {
            if (type == 1 && app.typeR())
                continue;
            if (type == 2 && !app.typeR())
                continue;
            v.push_back(x[policy][app.abbrev]);
        }
        return mean(v);
    };

    const double fine = group("FineReg", 0);
    std::printf("\nMean speedup over baseline (paper):\n");
    std::printf("  VT           %+.1f%%  (+14.3%% ~ derived)\n",
                100 * (group("VirtualThread", 0) - 1));
    std::printf("  Reg+DRAM     %+.1f%%  (~+17.7%% derived)\n",
                100 * (group("RegDram", 0) - 1));
    std::printf("  VT+RegMutex  %+.1f%%  (~+24%% derived)\n",
                100 * (group("RegMutex", 0) - 1));
    std::printf("  FineReg      %+.1f%%  (+32.8%%)\n", 100 * (fine - 1));
    std::printf("  FineReg Type-S %+.1f%% | Type-R %+.1f%% (paper ~+20%% "
                "Type-R)\n",
                100 * (group("FineReg", 1) - 1),
                100 * (group("FineReg", 2) - 1));
    std::printf("  FineReg vs VT %+.1f%% (paper +18.5%%), vs Reg+DRAM "
                "%+.1f%% (+12.8%%), vs VT+RegMutex %+.1f%% (+7.1%%)\n",
                100 * (fine / group("VirtualThread", 0) - 1),
                100 * (fine / group("RegDram", 0) - 1),
                100 * (fine / group("RegMutex", 0) - 1));
}

// ---- Fig. 14: SRP/BRS ratio and register-file depletion stalls -----------

/** Sec. VI-D studies its memory-intensive KM/SY2/BF; our synthetic
 * versions of those are register-lean, so the SRP-contention pathology
 * appears instead in the register-heavy memory-intensive apps. */
const char *kFig14Apps[] = {"CF", "LB", "TR"};

const double kSrpRatios[] = {0.125, 0.20, 0.281, 0.35, 0.45};

std::string
ratioKey(const std::string &app, double ratio)
{
    return "fig14/srp/" + app + "/" + TableFormatter::num(ratio, 3);
}

GpuConfig
regMutexAt(double srp_ratio)
{
    GpuConfig config = Experiment::configFor(PolicyKind::RegMutex);
    config.policy.srpRatio = srp_ratio;
    return config;
}

Cells
cellsFig14(double scale, const Results &)
{
    Cells cells;
    for (const char *app : kFig14Apps) {
        for (const double ratio : kSrpRatios)
            cells.push_back({ratioKey(app, ratio), app, regMutexAt(ratio),
                             scale});
        // Our register-lean synthetic apps leave the SRP uncontended at
        // the paper's 28.1% default; the contention pathology appears at
        // the tight end of the sweep.
        cells.push_back({std::string("fig14/stall/regmutex/") + app, app,
                         regMutexAt(0.125), scale});
        cells.push_back({std::string("fig14/stall/finereg/") + app, app,
                         Experiment::configFor(PolicyKind::FineReg), scale});
    }
    return cells;
}

void
reportFig14(double, const Results &results)
{
    std::printf("(a) SRP-ratio sweep, normalized IPC per app:\n");
    TableFormatter sweep({"app", "srp=12.5%", "srp=20%", "srp=28.1%",
                          "srp=35%", "srp=45%", "best"});
    for (const char *app : kFig14Apps) {
        double best_ipc = 0.0, best_ratio = 0.0;
        std::vector<std::string> row{app};
        for (const double ratio : kSrpRatios) {
            const auto &r = get(results, ratioKey(app, ratio));
            row.push_back(TableFormatter::num(r.ipc));
            if (r.ipc > best_ipc) {
                best_ipc = r.ipc;
                best_ratio = ratio;
            }
        }
        row.push_back(TableFormatter::pct(best_ratio));
        sweep.addRow(row);
    }
    std::printf("%s", sweep.render().c_str());

    std::printf("\n(b) Fraction of cycles stalled on RF depletion:\n");
    TableFormatter stalls({"app", "VT+RegMutex (SRP)", "FineReg (PCRF)"});
    double rm_sum = 0.0, fr_sum = 0.0;
    for (const char *app : kFig14Apps) {
        const auto &rm =
            get(results, std::string("fig14/stall/regmutex/") + app);
        const auto &fr =
            get(results, std::string("fig14/stall/finereg/") + app);
        rm_sum += rm.depletionStallFraction;
        fr_sum += fr.depletionStallFraction;
        stalls.addRow({app,
                       TableFormatter::pct(rm.depletionStallFraction),
                       TableFormatter::pct(fr.depletionStallFraction)});
    }
    std::printf("%s", stalls.render().c_str());
    std::printf("\nMean: RegMutex %.1f%% vs FineReg %.1f%% (paper: 7.5%% "
                "vs 1.3%%) — RegMutex holds SRP across stalls, FineReg "
                "frees register space by construction.\n",
                100 * rm_sum / 3, 100 * fr_sum / 3);
}

// ---- Fig. 15: off-chip memory traffic on FD, NW, ST ----------------------

const char *kFig15Apps[] = {"FD", "NW", "ST"};

Cells
cellsFig15(double scale, const Results &)
{
    Cells cells;
    for (const char *app : kFig15Apps) {
        for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
            cells.push_back({std::string("fig15/") + app + "/" +
                                 kPolicyNames[i],
                             app, Experiment::configFor(kPolicies[i]),
                             scale});
        }
    }
    return cells;
}

void
reportFig15(double, const Results &results)
{
    TableFormatter table({"app", "policy", "data bytes", "ctx bytes",
                          "bitvec bytes", "vs baseline"});
    for (const char *app : kFig15Apps) {
        const auto &base =
            get(results, std::string("fig15/") + app + "/Baseline");
        for (const char *policy : kPolicyNames) {
            const auto &r =
                get(results, std::string("fig15/") + app + "/" + policy);
            const double ratio =
                static_cast<double>(r.dramBytesTotal()) /
                static_cast<double>(base.dramBytesTotal());
            table.addRow(
                {app, policy, std::to_string(r.dramBytesData),
                 std::to_string(r.dramBytesCtaContext),
                 std::to_string(r.dramBytesBitvec),
                 TableFormatter::pct(ratio - 1.0, 2)});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: Reg+DRAM adds several percent of "
                "CTA-context traffic; FineReg's bit-vector traffic is "
                "negligible.\n");
}

// ---- Fig. 16: normalized energy with breakdown ---------------------------

Cells
cellsFig16(double scale, const Results &)
{
    return policyCells("fig16", scale);
}

void
reportFig16(double, const Results &results)
{
    // Suite-average breakdown per policy, normalized to baseline total.
    std::map<std::string, EnergyBreakdown> sums;
    for (const auto &app : Suite::all()) {
        for (const char *policy : kPolicyNames) {
            const auto &r =
                get(results, "fig16/" + app.abbrev + "/" + policy);
            EnergyBreakdown &acc = sums[policy];
            acc.dramDyn += r.energy.dramDyn;
            acc.rfDyn += r.energy.rfDyn;
            acc.othersDyn += r.energy.othersDyn;
            acc.leakage += r.energy.leakage;
            acc.fineregOverhead += r.energy.fineregOverhead;
            acc.ctaSwitching += r.energy.ctaSwitching;
        }
    }

    const double base_total = sums["Baseline"].total();
    TableFormatter table({"policy", "DRAM_Dyn", "RF_Dyn", "Others_Dyn",
                          "Leakage", "FineReg", "CTA_Switch", "total"});
    for (const char *policy : kPolicyNames) {
        const EnergyBreakdown &e = sums[policy];
        table.addRow({policy, TableFormatter::num(e.dramDyn / base_total),
                      TableFormatter::num(e.rfDyn / base_total),
                      TableFormatter::num(e.othersDyn / base_total),
                      TableFormatter::num(e.leakage / base_total),
                      TableFormatter::num(e.fineregOverhead / base_total,
                                          4),
                      TableFormatter::num(e.ctaSwitching / base_total, 4),
                      TableFormatter::num(e.total() / base_total)});
    }
    std::printf("%s", table.render().c_str());

    std::printf("\nTotal energy vs baseline (paper):\n");
    for (const char *policy : kPolicyNames) {
        if (policy == std::string("Baseline"))
            continue;
        std::printf("  %-14s %+6.1f%%\n", policy,
                    100.0 * (sums[policy].total() / base_total - 1.0));
    }
    std::printf("  (paper: FineReg -21.3%%, and less than VT by 12.3%%, "
                "Reg+DRAM by 8.6%%, VT+RegMutex by 1.5%%)\n");
}

// ---- Fig. 17: ACRF/PCRF split sensitivity --------------------------------

const unsigned kAcrfKb[] = {64, 96, 128, 160, 192};

/** A representative subset (both types) keeps the sweep tractable. */
const char *kFig17Apps[] = {"MC", "BI", "SY2", "CS", "LI", "SR2", "CF",
                            "AT"};

std::string
fig17Key(const std::string &app, unsigned acrf_kb)
{
    return "fig17/" + app + "/" + std::to_string(acrf_kb);
}

Cells
cellsFig17(double scale, const Results &)
{
    Cells cells;
    for (const char *app : kFig17Apps) {
        for (const unsigned acrf : kAcrfKb) {
            GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
            config.policy.acrfBytes = acrf * 1024ull;
            config.policy.pcrfBytes = (256 - acrf) * 1024ull;
            cells.push_back({fig17Key(app, acrf), app, config, scale});
        }
    }
    return cells;
}

void
reportFig17(double, const Results &results)
{
    TableFormatter table({"split (ACRF/PCRF)", "mean norm. IPC",
                          "mean resident CTAs", "mean active CTAs"});
    std::map<unsigned, double> mean_ipc;
    for (const unsigned acrf : kAcrfKb) {
        std::vector<double> ipcs, res, act;
        for (const char *app : kFig17Apps) {
            const auto &r = get(results, fig17Key(app, acrf));
            const auto &ref = get(results, fig17Key(app, 128));
            ipcs.push_back(Experiment::speedup(r, ref));
            res.push_back(r.avgResidentCtas);
            act.push_back(r.avgActiveCtas);
        }
        mean_ipc[acrf] = mean(ipcs);
        table.addRow({std::to_string(acrf) + "/" +
                          std::to_string(256 - acrf) + " KB",
                      TableFormatter::num(mean(ipcs), 3),
                      TableFormatter::num(mean(res), 1),
                      TableFormatter::num(mean(act), 1)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nRelative to the balanced 128/128 split: 64/192 %+.1f%% "
                "(paper -12.9%%), 160/96 %+.1f%% (paper -5.4%%)\n",
                100 * (mean_ipc[64] - 1), 100 * (mean_ipc[160] - 1));
}

// ---- Fig. 18: SM-count scaling and Baseline+Resource overhead ------------

const unsigned kSmCounts[] = {16, 32, 64, 128};

/** Representative subset; the grid scales with the SM count so per-SM
 * work stays constant. */
const char *kFig18Apps[] = {"MC", "BI", "SY2", "LI", "SR2", "CS"};

GpuConfig
scaled(PolicyKind kind, unsigned sms)
{
    GpuConfig config = Experiment::configFor(kind);
    config.numSms = sms;
    // Bandwidth scales with the device (NUMA-GPU style), keeping the
    // per-SM balance of Table I.
    config.mem.dram.bytesPerCycle *= sms / 16.0;
    config.mem.l2.sizeBytes =
        config.mem.l2.sizeBytes * sms / 16;
    config.mem.l2TransactionsPerCycle *= sms / 16.0;
    return config;
}

/** Baseline with scheduling resources and memory enlarged to host the
 * same resident-CTA count FineReg reaches. */
GpuConfig
baselinePlusResource(unsigned sms, double finereg_resident_ctas,
                     const Kernel &kernel)
{
    GpuConfig config = scaled(PolicyKind::Baseline, sms);
    const auto target =
        static_cast<unsigned>(finereg_resident_ctas + 1.0);
    config.sm.maxCtas = std::max(config.sm.maxCtas, target);
    config.sm.maxWarps =
        std::max(config.sm.maxWarps, target * kernel.warpsPerCta());
    config.sm.maxThreads =
        std::max(config.sm.maxThreads, target * kernel.threadsPerCta());
    config.sm.regFileBytes = std::max<std::uint64_t>(
        config.sm.regFileBytes, target * kernel.regBytesPerCta());
    config.sm.shmemBytes = std::max<std::uint64_t>(
        config.sm.shmemBytes,
        std::uint64_t(target) * kernel.shmemPerCta());
    return config;
}

/** Extra on-chip bytes Baseline+Resource needs per SM vs Table I. */
std::uint64_t
overheadBytesPerSm(const GpuConfig &config)
{
    const GpuConfig base = GpuConfig::gtx980();
    std::uint64_t extra = 0;
    if (config.sm.regFileBytes > base.sm.regFileBytes)
        extra += config.sm.regFileBytes - base.sm.regFileBytes;
    if (config.sm.shmemBytes > base.sm.shmemBytes)
        extra += config.sm.shmemBytes - base.sm.shmemBytes;
    // Scheduling state: ~64 B per extra warp slot (PC, SIMT stack head,
    // scoreboard rows).
    if (config.sm.maxWarps > base.sm.maxWarps)
        extra += std::uint64_t(config.sm.maxWarps - base.sm.maxWarps) * 64;
    return extra;
}

Cells
cellsFig18(double scale, const Results &results)
{
    Cells cells;
    for (const unsigned sms : kSmCounts) {
        for (const char *app : kFig18Apps) {
            const std::string prefix =
                "fig18/" + std::to_string(sms) + "/" + app;
            const double grid_scale = scale * sms / 16.0;
            cells.push_back({prefix + "/base", app,
                             scaled(PolicyKind::Baseline, sms), grid_scale});
            cells.push_back({prefix + "/finereg", app,
                             scaled(PolicyKind::FineReg, sms), grid_scale});
            // Baseline+Resource is sized from FineReg's measured
            // residency, so it joins the wave after FineReg's.
            const auto fine = results.find(prefix + "/finereg");
            if (fine == results.end())
                continue;
            const auto kernel = Suite::makeKernel(Suite::byName(app), 1.0);
            cells.push_back(
                {prefix + "/plus", app,
                 baselinePlusResource(sms, fine->second.avgResidentCtas,
                                      *kernel),
                 grid_scale});
        }
    }
    return cells;
}

void
reportFig18(double, const Results &results)
{
    TableFormatter table({"SMs", "FineReg vs base", "Base+Res vs base",
                          "Base+Res overhead (MB total)"});
    for (const unsigned sms : kSmCounts) {
        std::vector<double> fine_x, plus_x;
        double overhead_mb = 0.0;
        for (const char *app : kFig18Apps) {
            const std::string prefix =
                "fig18/" + std::to_string(sms) + "/" + app;
            const auto &base = get(results, prefix + "/base");
            const auto &fine = get(results, prefix + "/finereg");
            const auto &plus = get(results, prefix + "/plus");
            fine_x.push_back(Experiment::speedup(fine, base));
            plus_x.push_back(Experiment::speedup(plus, base));

            const auto kernel =
                Suite::makeKernel(Suite::byName(app), 1.0);
            overhead_mb += overheadBytesPerSm(baselinePlusResource(
                               sms, fine.avgResidentCtas, *kernel)) *
                           sms / (1024.0 * 1024.0);
        }
        overhead_mb /= std::size(kFig18Apps);
        table.addRow({std::to_string(sms),
                      TableFormatter::pct(mean(fine_x) - 1.0),
                      TableFormatter::pct(mean(plus_x) - 1.0),
                      TableFormatter::num(overhead_mb, 1)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nFineReg's own overhead stays ~5 KB of SRAM per SM at "
                "every scale (Sec. V-F); Baseline+Resource needs "
                "megabytes (paper: 2.4-19.1 MB).\n");
}

// ---- Fig. 19: unified on-chip local memory -------------------------------

GpuConfig
umConfig(PolicyKind kind)
{
    GpuConfig config = Experiment::configFor(kind);
    config.policy.unifiedMemory = true;
    return config;
}

Cells
cellsFig19(double scale, const Results &)
{
    const std::pair<const char *, GpuConfig> variants[] = {
        {"base", Experiment::configFor(PolicyKind::Baseline)},
        {"um", umConfig(PolicyKind::Baseline)},
        {"vt_um", umConfig(PolicyKind::VirtualThread)},
        {"finereg_um", umConfig(PolicyKind::FineReg)},
    };
    Cells cells;
    for (const auto &app : Suite::all()) {
        for (const auto &[name, config] : variants) {
            cells.push_back(
                {"fig19/" + app.abbrev + "/" + name, app.abbrev, config,
                 scale});
        }
    }
    return cells;
}

void
reportFig19(double, const Results &results)
{
    auto key = [](const std::string &app, const std::string &variant) {
        return "fig19/" + app + "/" + variant;
    };
    TableFormatter table(
        {"app", "UM vs base", "VT+UM vs base", "FineReg+UM vs base"});
    std::vector<double> um_x, vt_x, fine_x;
    std::vector<double> um_cache; // AT/BI/KM/SY2 subset
    for (const auto &app : Suite::all()) {
        const auto &base = get(results, key(app.abbrev, "base"));
        const double um = Experiment::speedup(
            get(results, key(app.abbrev, "um")), base);
        const double vt = Experiment::speedup(
            get(results, key(app.abbrev, "vt_um")), base);
        const double fine = Experiment::speedup(
            get(results, key(app.abbrev, "finereg_um")), base);
        um_x.push_back(um);
        vt_x.push_back(vt);
        fine_x.push_back(fine);
        if (app.abbrev == "AT" || app.abbrev == "BI" ||
            app.abbrev == "KM" || app.abbrev == "SY2") {
            um_cache.push_back(um);
        }
        table.addRow({app.abbrev, TableFormatter::num(um) + "x",
                      TableFormatter::num(vt) + "x",
                      TableFormatter::num(fine) + "x"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nMeans vs baseline: UM %+.1f%% (paper +17.6%%), VT+UM "
                "%+.1f%%, FineReg+UM %+.1f%%\n",
                100 * (mean(um_x) - 1), 100 * (mean(vt_x) - 1),
                100 * (mean(fine_x) - 1));
    std::printf("FineReg+UM over UM-only: %+.1f%% (paper +35.6%%); "
                "cache-hungry AT/BI/KM/SY2 under UM-only: %+.1f%%\n",
                100 * (mean(fine_x) / mean(um_x) - 1),
                100 * (mean(um_cache) - 1));
}

// ---- Ablations: the design choices DESIGN.md calls out -------------------

const char *kAblationApps[] = {"MC", "SY2", "SR2", "LI"};

Cells
cellsAblation(double scale, const Results &)
{
    const GpuConfig fine = Experiment::configFor(PolicyKind::FineReg);
    GpuConfig full_ctx = fine, zero_lat = fine, bv4 = fine, bv128 = fine,
              lrr = fine;
    full_ctx.policy.fullContextBackup = true;
    zero_lat.policy.zeroSwitchLatency = true;
    bv4.policy.bitvecCacheEntries = 4;
    bv128.policy.bitvecCacheEntries = 128;
    lrr.sm.sched = SchedKind::LRR;
    const std::pair<const char *, GpuConfig> variants[] = {
        {"fine", fine}, {"fullctx", full_ctx}, {"zerolat", zero_lat},
        {"bv4", bv4},   {"bv128", bv128},      {"lrr", lrr},
    };
    Cells cells;
    for (const char *app : kAblationApps) {
        for (const auto &[name, config] : variants) {
            cells.push_back(
                {std::string("abl/") + name + "/" + app, app, config, scale});
        }
    }
    return cells;
}

void
reportAblation(double, const Results &results)
{
    TableFormatter table({"app", "FineReg", "full-context", "zero-latency",
                          "bvcache=4", "bvcache=128", "LRR baseline"});
    for (const char *app : kAblationApps) {
        const auto &fine = get(results, std::string("abl/fine/") + app);
        auto rel = [&](const char *variant) {
            return TableFormatter::num(
                Experiment::speedup(
                    get(results,
                        std::string("abl/") + variant + "/" + app),
                    fine),
                3);
        };
        table.addRow({app, TableFormatter::num(fine.ipc), rel("fullctx"),
                      rel("zerolat"), rel("bv4"), rel("bv128"),
                      rel("lrr")});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "\nColumns are IPC relative to stock FineReg. Expected: "
        "full-context <= 1 (fewer pending CTAs fit), zero-latency ~1 "
        "(switch latency already hidden), bvcache=4 slightly <= 1 and "
        "bvcache=128 ~1 (32 entries suffice).\n");
}

// ---- The registry --------------------------------------------------------

struct RegistryEntry
{
    const char *id;
    const char *title;
    const char *paperClaim;
    double defaultScale;
    /** The cells the report needs given the results so far; null when
     * the report simulates nothing. */
    Cells (*cells)(double scale, const Results &results);
    void (*report)(double scale, const Results &results);
};

const RegistryEntry kRegistry[] = {
    {"table1", "Table I: Simulation Setup",
     "GPGPU-Sim configured as a GTX 980-like GPU (16 SMs, 1126 MHz, "
     "64 warps/SM, 32 CTAs/SM, GTO, 256 KB RF, 96 KB shmem, 48 KB L1, "
     "2 MB L2, 352.5 GB/s)",
     1.0, nullptr, reportTable1},
    {"table2", "Table II: Benchmark Applications",
     "9 Type-S apps (CTA/warp scheduler limited) and 9 Type-R apps "
     "(register file or shared memory limited)",
     1.0, nullptr, reportTable2},
    {"table3", "Table III: Average CTA execution time until complete stall",
     "CTAs fully stall within 193-2,299 cycles of starting/resuming", 0.25,
     cellsTable3, reportTable3},
    {"fig02", "Figure 2: Scaling scheduling resources vs. on-chip memory",
     "Type-S: +27.1%/+28.4% (sched 1.5x/2x), ~0% (mem); Type-R: "
     "+29.5%/+43.6% (mem); both: +45.5% (S) / +98.6% (R)",
     0.2, cellsFig2, reportFig2},
    {"fig03", "Figure 3: Overhead of allocating one additional CTA",
     "6 KB to 37.3 KB per CTA; registers are 88.7% of the total", 1.0,
     nullptr, reportFig3},
    {"fig04", "Figure 4: CS under Baseline / Full RF / Full RF+DRAM / Ideal",
     "Full RF +21.3% over baseline; Full RF+DRAM only +3.5% more "
     "despite 2x CTAs; both far from ideal",
     0.5, cellsFig4, reportFig4},
    {"fig05", "Figure 5: Register file usage in 1,000-instruction windows",
     "average 55.3% in use; MC/NW/LI/SR2/TA worst windows below 15%", 0.25,
     cellsFig5, reportFig5},
    {"fig12", "Figure 12: Number of concurrent CTAs",
     "FineReg +141.7% vs baseline (Type-S +203.8%, Type-R +79.8%); "
     "+48.6% vs VT, +20.1% vs Reg+DRAM; VT+RegMutex +11.5% vs FineReg",
     0.5, cellsFig12, reportFig12},
    {"fig13", "Figure 13: Normalized IPC (the headline comparison)",
     "FineReg +32.8% vs baseline; +18.5% vs VT; +12.8% vs Reg+DRAM; "
     "+7.1% vs VT+RegMutex; Type-R +20%",
     0.5, cellsFig13, reportFig13},
    {"fig14", "Figure 14: SRP/BRS ratio and register-file depletion stalls",
     "(a) optimal SRP ~28.1% average, 20.8% for memory-intensive apps; "
     "(b) stalls: VT+RegMutex 7.5% of cycles vs FineReg 1.3%",
     0.4, cellsFig14, reportFig14},
    {"fig15", "Figure 15: Normalized off-chip memory traffic (FD, NW, ST)",
     "Reg+DRAM +7.2-9.9% (CTA contexts); VT/RegMutex/FineReg < +1%", 0.5,
     cellsFig15, reportFig15},
    {"fig16", "Figure 16: Normalized energy consumption with breakdown",
     "FineReg -21.3% vs baseline; -12.3% vs VT; -8.6% vs Reg+DRAM; "
     "-1.5% vs VT+RegMutex",
     0.5, cellsFig16, reportFig16},
    {"fig17", "Figure 17: ACRF/PCRF split sensitivity",
     "128/128 best; 160/96 -5.4%; 64/192 -12.9% despite max TLP", 0.35,
     cellsFig17, reportFig17},
    {"fig18", "Figure 18: SM-count scaling and Baseline+Resource overhead",
     "FineReg >10% over baseline from 16 to 128 SMs; matching it with "
     "a bigger baseline costs 2.4-19.1 MB",
     0.45, cellsFig18, reportFig18},
    {"fig19", "Figure 19: Unified on-chip local memory (272 KB pool)",
     "UM-only +17.6% vs baseline; FineReg+UM +35.6% vs UM-only; "
     "AT/BI/KM/SY2 benefit most from the bigger L1",
     0.35, cellsFig19, reportFig19},
    {"ablation",
     "Ablations: live-register backup, switch latency, bit-vector "
     "cache size, warp scheduler",
     "Sec. V-C: 32-entry cache suffices; Sec. V-E: switch latency is "
     "hidden; live-register storage is what makes the PCRF dense",
     0.5, cellsAblation, reportAblation},
};

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "finereg_experiments — the paper's tables, figures and ablations\n"
        "\n"
        "usage: finereg_experiments [ID...]   (default: every experiment)\n"
        "\n"
        "Prints each report in registry order; a cell shared by several\n"
        "experiments is simulated once. FINEREG_BENCH_SCALE overrides every\n"
        "default grid scale; FINEREG_JOBS sets the worker count.\n"
        "\n"
        "ids (default grid scale):\n");
    for (const auto &entry : kRegistry) {
        std::fprintf(out, "  %-9s %-5s %s\n", entry.id,
                     entry.cells ? TableFormatter::num(entry.defaultScale)
                                       .c_str()
                                 : "-",
                     entry.title);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const RegistryEntry *> selected;
    for (const auto &entry : kRegistry) {
        const bool named = std::any_of(argv + 1, argv + argc, [&](auto arg) {
            return entry.id == std::string(arg);
        });
        if (argc == 1 || named)
            selected.push_back(&entry);
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        }
        if (std::none_of(std::begin(kRegistry), std::end(kRegistry),
                         [&](const auto &e) { return arg == e.id; })) {
            std::fprintf(stderr, "error: unknown experiment '%s'\n\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    std::string error;
    const std::optional<double> scale_override = benchScaleOverride(error);
    if (!error.empty()) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    auto scale_of = [&](const RegistryEntry &entry) {
        return scale_override.value_or(entry.defaultScale);
    };

    // Waves: ask every entry for its cells, simulate each key not yet
    // run, and repeat until no entry asks for a label it has not asked
    // for. A wave can add labels without jobs (a dependent cell may land
    // on a key that already ran), so labels are mapped after every wave.
    Results results;
    std::map<std::string, std::string> label_keys;
    std::map<std::string, SimResult> by_key;
    std::map<std::pair<std::string, double>, std::shared_ptr<const Kernel>>
        kernels;
    ParallelRunner runner;
    unsigned waves = 0;
    double wall_ms = 0.0;
    for (;;) {
        std::vector<std::string> new_labels, job_keys;
        std::vector<ParallelRunner::Job> jobs;
        for (const RegistryEntry *entry : selected) {
            if (!entry->cells)
                continue;
            for (const Cell &cell : entry->cells(scale_of(*entry), results)) {
                if (label_keys.count(cell.label))
                    continue;
                auto &kernel = kernels[{cell.app, cell.scale}];
                if (!kernel) {
                    kernel = Suite::makeKernel(Suite::byName(cell.app),
                                               cell.scale);
                }
                std::string key =
                    makeSweepJobKey(*kernel, cell.config).toString();
                if (by_key.try_emplace(key).second) {
                    jobs.push_back(Experiment::makeSweepJob(
                        kernel, cell.config, cell.app, nullptr));
                    job_keys.push_back(key);
                }
                label_keys.emplace(cell.label, std::move(key));
                new_labels.push_back(cell.label);
            }
        }
        if (new_labels.empty())
            break;
        ++waves;
        ParallelRunner::Outcome outcome = runner.runAll(std::move(jobs));
        wall_ms += outcome.totalWallMs;
        for (std::size_t i = 0; i < job_keys.size(); ++i)
            by_key[job_keys[i]] = std::move(outcome.results[i]);
        for (const std::string &label : new_labels)
            results[label] = by_key.at(label_keys.at(label));
    }
    std::fprintf(stderr,
                 "experiments: %zu cells requested, %zu distinct simulated "
                 "on %u jobs in %.0f ms (%u wave%s)\n",
                 label_keys.size(), by_key.size(),
                 runner.jobs(), wall_ms, waves,
                 waves == 1 ? "" : "s");

    std::size_t failed = 0;
    for (const auto &[label, r] : results) {
        if (!r.failed && !r.hitCycleLimit)
            continue;
        ++failed;
        std::fprintf(stderr, "error: cell %s %s\n", label.c_str(),
                     r.failed ? ("failed: " + r.failureReason).c_str()
                              : "hit the cycle cap");
    }
    if (failed > 0) {
        std::fprintf(stderr, "error: %zu of %zu cells failed; no report "
                             "printed\n",
                     failed, results.size());
        return 1;
    }

    const char *rule = "=====================================================";
    for (const RegistryEntry *entry : selected) {
        std::printf("\n%s\n%s\nPaper reference: %s\n%s\n", rule, entry->title,
                    entry->paperClaim, rule);
        entry->report(scale_of(*entry), results);
    }
    return 0;
}
