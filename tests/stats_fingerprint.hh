/**
 * @file
 * The stats fingerprint the tests compare runs by: FNV-1a over a Gpu's
 * full stat dump (every counter and distribution, host counters skipped)
 * and the six energy doubles — the same hash the perfbench harness
 * prints. tests/golden/stats.golden pins it per (config, app); the
 * idle-skip tests require it equal across host strategies.
 */

#ifndef FINEREG_TESTS_STATS_FINGERPRINT_HH
#define FINEREG_TESTS_STATS_FINGERPRINT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "energy/energy_model.hh"
#include "sm/gpu.hh"

namespace finereg
{

inline std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t hash)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Host-strategy counters: they describe how the simulator ran, not what
 * it simulated, so the fingerprint skips them. The list mirrors the
 * perfbench harness's isHostCounter entry for entry, including names the
 * simulator no longer emits. */
inline bool
isHostCounter(std::string_view stat)
{
    static constexpr std::string_view kHost[] = {
        "gpu.loop_iterations", "gpu.skipped_cycles", "gpu.wheel_pushes",
        "gpu.wheel_pops",      "rmu.bitvec_word_ops", "verify.full_audits",
        "verify.edge_audits"};
    return std::find(std::begin(kHost), std::end(kHost), stat) !=
           std::end(kHost);
}

/** Fingerprint of @p gpu after a run that took @p cycles. */
inline std::uint64_t
statsFingerprint(Gpu &gpu, Cycle cycles)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::istringstream dump(gpu.stats().dump());
    for (std::string line; std::getline(dump, line);) {
        std::string_view stat(line);
        stat = stat.substr(0, stat.find(' '));
        stat.remove_prefix(std::string_view("gpu.").size());
        if (!isHostCounter(stat))
            hash = fnv1a(line, fnv1a("\n", hash));
    }
    const EnergyBreakdown e =
        EnergyModel().compute(gpu.stats(), cycles, gpu.config().numSms);
    for (const double v : {e.dramDyn, e.rfDyn, e.othersDyn, e.leakage,
                           e.fineregOverhead, e.ctaSwitching}) {
        char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        hash = fnv1a(std::string_view(bytes, sizeof bytes), hash);
    }
    return hash;
}

} // namespace finereg

#endif // FINEREG_TESTS_STATS_FINGERPRINT_HH
