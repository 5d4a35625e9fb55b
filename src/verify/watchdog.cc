#include "verify/watchdog.hh"

#include <algorithm>
#include <sstream>

#include "policies/finereg_policy.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

namespace
{

/** Why a warp cannot issue right now, for the diagnostic histogram. */
enum class WarpStall : unsigned
{
    Issuable,
    Finished,
    Barrier,
    IssueShadow, ///< earliestIssue() still in the future (latency/switch).
    Memory,      ///< Scoreboard blocked on a global-memory load.
    Execution,   ///< Scoreboard blocked on a short-latency dependence.
    kCount,
};

const char *const kStallNames[] = {"issuable",     "finished", "barrier",
                                   "issue-shadow", "memory",   "execution"};

WarpStall
classifyWarp(const Warp &warp, Cycle now)
{
    if (warp.finished())
        return WarpStall::Finished;
    if (warp.atBarrier())
        return WarpStall::Barrier;
    if (warp.earliestIssue() > now)
        return WarpStall::IssueShadow;
    if (warp.pastEnd())
        return WarpStall::Issuable; // retires at next pick
    const Instruction &instr = warp.currentInstr();
    Scoreboard &sb = const_cast<Scoreboard &>(warp.scoreboard());
    if (sb.readyCycle(instr, now) <= now)
        return WarpStall::Issuable;
    return warp.scoreboard().blockedOnMemory(instr, now)
               ? WarpStall::Memory
               : WarpStall::Execution;
}

} // namespace

std::string
buildStallDiagnostic(Gpu &gpu, Cycle now, Cycle last_progress)
{
    std::ostringstream oss;
    const CtaDispatcher &disp = gpu.dispatcher();
    oss << "=== stall diagnostic @ cycle " << now << " ===\n";
    oss << "last forward progress: cycle " << last_progress << " ("
        << now - last_progress << " cycles ago)\n";
    oss << "dispatcher: " << disp.completed() << "/" << disp.gridCtas()
        << " CTAs complete, " << disp.remaining() << " undispatched\n";

    const auto *finereg =
        dynamic_cast<const FineRegPolicy *>(&gpu.policy());

    for (auto &sm : gpu.sms()) {
        oss << "sm " << sm->id() << ": " << sm->activeCtaCount()
            << " active / " << sm->pendingCtaCount() << " pending / "
            << sm->residentCtas().size() << " resident CTAs";
        if (gpu.policy().rfDepletionBlocked(*sm, now))
            oss << " [rf-depletion-blocked]";
        oss << "\n";

        unsigned counts[static_cast<unsigned>(WarpStall::kCount)] = {};
        Cycle earliest_wake = kNoCycle;
        unsigned mem_blocked_warps = 0;
        for (const auto &cta : sm->residentCtas()) {
            if (cta->state() != CtaState::Active)
                continue;
            for (const auto &warp : cta->warps()) {
                const WarpStall reason = classifyWarp(*warp, now);
                ++counts[static_cast<unsigned>(reason)];
                if (reason == WarpStall::Memory) {
                    ++mem_blocked_warps;
                    earliest_wake = std::min(
                        earliest_wake,
                        warp->scoreboard().lastPendingCycle(now));
                } else if (reason == WarpStall::IssueShadow) {
                    earliest_wake =
                        std::min(earliest_wake, warp->earliestIssue());
                }
            }
        }
        oss << "  active warps:";
        for (unsigned r = 0; r < static_cast<unsigned>(WarpStall::kCount);
             ++r) {
            if (counts[r] > 0)
                oss << " " << kStallNames[r] << "=" << counts[r];
        }
        if (mem_blocked_warps > 0 && earliest_wake != kNoCycle) {
            oss << " (earliest operand return: cycle " << earliest_wake
                << ")";
        }
        oss << "\n";

        if (finereg) {
            const Pcrf &pcrf = finereg->pcrfOf(*sm);
            const RegFileAllocator &acrf = finereg->acrfOf(*sm);
            oss << "  acrf: " << acrf.usedWarpRegs() << "/"
                << acrf.capacityWarpRegs() << " warp-regs, pcrf: "
                << pcrf.numEntries() - pcrf.freeEntries() << "/"
                << pcrf.numEntries() << " entries over "
                << pcrf.numPendingCtas() << " chains\n";
        }
        for (const auto &cta : sm->residentCtas()) {
            if (cta->state() != CtaState::Pending)
                continue;
            oss << "  pending cta " << cta->gridId();
            if (finereg) {
                oss << ": " << finereg->pcrfOf(*sm).liveCountOf(cta->gridId())
                    << " live regs in pcrf";
            }
            // Switching policies mirror each on-chip pending CTA's ready
            // cycle into the CTA itself, so this also works through a
            // policy decorator; a second-tier (DRAM) CTA has none.
            if (cta->policyReadyCycle != kNoCycle) {
                oss << (finereg ? ", " : ": ") << "ready at cycle "
                    << cta->policyReadyCycle;
            }
            oss << "\n";
        }
    }
    return oss.str();
}

void
DeadlockWatchdog::check(Gpu &gpu, Cycle now) const
{
    if (!enabled() || now < lastProgress_ || now - lastProgress_ < threshold_)
        return;
    std::ostringstream msg;
    msg << "no instruction issued and no CTA completed for "
        << now - lastProgress_ << " cycles (threshold " << threshold_ << ")";
    raiseDeadlock(msg.str(), now,
                  buildStallDiagnostic(gpu, now, lastProgress_));
}

} // namespace finereg
