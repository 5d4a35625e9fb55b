/**
 * @file
 * Golden full-stats fingerprints: every counter, every distribution and the
 * six energy doubles of each Table II workload under eight policy configs
 * are pinned by one FNV-1a hash per (config, app) in
 * tests/golden/stats.golden. The end-state goldens pin architectural values
 * only; these pin timing, traffic, switching decisions and energy, so a
 * refactor of the switching policies that moves any simulated number shows
 * up here.
 *
 * The size (4 SMs, scale 0.1) is chosen so that the switching policies do
 * switch: FineReg parks CTAs in the PCRF, Reg+DRAM moves contexts through
 * DRAM, and the small-SRP and small-PCRF configs hit depletion stalls.
 *
 * Regenerate intentionally with:  UPDATE_GOLDEN=1 ./finereg_tests \
 *     --gtest_filter='*GoldenStats*'
 * (one process: each config rewrites only its own lines of the file).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "sm/gpu.hh"
#include "stats_fingerprint.hh"
#include "workloads/suite.hh"

#ifndef FINEREG_GOLDEN_DIR
#error "FINEREG_GOLDEN_DIR must point at tests/golden"
#endif

namespace finereg
{
namespace
{

constexpr double kScale = 0.1;
constexpr unsigned kSms = 4;

struct GoldenConfig
{
    const char *name;
    GpuConfig (*make)();
};

GpuConfig
withKind(PolicyKind kind)
{
    GpuConfig config = Experiment::configFor(kind);
    config.numSms = kSms;
    return config;
}

const GoldenConfig kConfigs[] = {
    {"baseline", [] { return withKind(PolicyKind::Baseline); }},
    {"vt", [] { return withKind(PolicyKind::VirtualThread); }},
    {"regdram", [] { return withKind(PolicyKind::RegDram); }},
    {"regmutex", [] { return withKind(PolicyKind::RegMutex); }},
    {"finereg", [] { return withKind(PolicyKind::FineReg); }},
    {"regmutex_srp10",
     [] {
         GpuConfig c = withKind(PolicyKind::RegMutex);
         c.policy.srpRatio = 0.1;
         return c;
     }},
    {"finereg_pcrf32",
     [] {
         GpuConfig c = withKind(PolicyKind::FineReg);
         c.policy.acrfBytes = 224 * 1024;
         c.policy.pcrfBytes = 32 * 1024;
         return c;
     }},
    {"finereg_faults",
     [] {
         GpuConfig c = withKind(PolicyKind::FineReg);
         c.verify.fault.seed = 7;
         c.verify.fault.pcrfFullProb = 0.25;
         c.verify.fault.bitvecMissProb = 0.1;
         return c;
     }},
};

/** Run @p kernel under @p config to completion and fingerprint it. */
std::uint64_t
runFingerprint(const GpuConfig &config, const Kernel &kernel)
{
    Gpu gpu(config, kernel);
    const GpuRunResult run = gpu.run();
    EXPECT_FALSE(run.hitCycleLimit) << kernel.name();
    EXPECT_EQ(run.completedCtas, kernel.gridCtas()) << kernel.name();
    return statsFingerprint(gpu, run.cycles);
}

const std::string kGoldenPath = std::string(FINEREG_GOLDEN_DIR) +
                                "/stats.golden";

/** Key of one golden line: "<config> <app>". */
std::string
goldenKey(const std::string &config, const std::string &app)
{
    return config + " " + app;
}

/** goldenKey -> fingerprint; empty when the file is missing. */
std::map<std::string, std::uint64_t>
readGolden()
{
    std::map<std::string, std::uint64_t> pinned;
    std::ifstream in(kGoldenPath);
    for (std::string line; std::getline(in, line);) {
        std::istringstream iss(line);
        std::string config, app, value;
        if (line.empty() || line[0] == '#' || !(iss >> config >> app >> value))
            continue;
        pinned[goldenKey(config, app)] =
            std::strtoull(value.c_str(), nullptr, 0);
    }
    return pinned;
}

void
writeGolden(const std::map<std::string, std::uint64_t> &pinned)
{
    std::ofstream out(kGoldenPath);
    out << "# golden stats fingerprints: FNV-1a over Gpu::stats().dump() "
           "minus host counters,\n# plus the six EnergyBreakdown doubles. "
           "sms="
        << kSms << " scale=" << kScale << " idle-skip=scan\n";
    for (const GoldenConfig &config : kConfigs) {
        for (const SuiteEntry &entry : Suite::all()) {
            const auto it = pinned.find(goldenKey(config.name, entry.abbrev));
            if (it == pinned.end())
                continue;
            out << config.name << " " << entry.abbrev << " 0x" << std::hex
                << it->second << std::dec << "\n";
        }
    }
}

/** Print a config by name, so test names stay stable across runs. */
void
PrintTo(const GoldenConfig &config, std::ostream *os)
{
    *os << config.name;
}

class GoldenStatsTest : public ::testing::TestWithParam<GoldenConfig>
{
};

TEST_P(GoldenStatsTest, EveryWorkloadMatchesItsFingerprint)
{
    const bool update = std::getenv("UPDATE_GOLDEN") != nullptr;
    const GpuConfig config = GetParam().make();
    std::map<std::string, std::uint64_t> pinned = readGolden();

    for (const SuiteEntry &entry : Suite::all()) {
        const auto kernel = Suite::makeKernel(entry, kScale);
        const std::uint64_t hash = runFingerprint(config, *kernel);
        const std::string key = goldenKey(GetParam().name, entry.abbrev);
        if (update) {
            pinned[key] = hash;
            continue;
        }
        const auto it = pinned.find(key);
        ASSERT_NE(it, pinned.end())
            << "no golden fingerprint for " << key << " in " << kGoldenPath
            << " — run with UPDATE_GOLDEN=1 to create it";
        EXPECT_EQ(hash, it->second)
            << key << ": simulated stats changed; if intentional, "
            << "regenerate with UPDATE_GOLDEN=1";
    }
    if (update)
        writeGolden(pinned);
}

INSTANTIATE_TEST_SUITE_P(
    GoldenStats, GoldenStatsTest, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<GoldenConfig> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace finereg
