#include "verify/invariant_auditor.hh"

#include <sstream>

#include "policies/policy.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

namespace
{

[[noreturn]] void
fail(const char *invariant, const std::string &message, GridCtaId cta,
     std::uint32_t sm, Cycle now)
{
    raiseInvariant(invariant, message, cta, sm, now);
}

} // namespace

void
InvariantAuditor::audit(Gpu &gpu, Cycle now) const
{
    for (auto &sm : gpu.sms())
        auditSm(gpu, *sm, now);
    auditDispatcher(gpu, now);
}

void
InvariantAuditor::auditSm(Gpu &gpu, Sm &sm, Cycle now) const
{
    const Kernel &kernel = sm.context().kernel();
    const SmConfig &cfg = sm.config();
    const std::uint32_t sm_id = sm.id();

    unsigned active = 0;
    std::uint64_t shmem_expected = 0;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->state() == CtaState::Done) {
            fail("cta-state",
                 "Done CTA still resident after the retire stage",
                 cta->gridId(), sm_id, now);
        }
        if (cta->state() == CtaState::Active)
            ++active;
        shmem_expected += kernel.shmemPerCta();

        unsigned finished = 0;
        for (const auto &warp : cta->warps())
            finished += warp->finished() ? 1 : 0;
        if (finished != cta->finishedWarps()) {
            std::ostringstream oss;
            oss << "finished-warp counter reads " << cta->finishedWarps()
                << " but " << finished << " warps are finished";
            fail("warp-accounting", oss.str(), cta->gridId(), sm_id, now);
        }

        for (const auto &warp : cta->warps()) {
            const Scoreboard &sb = warp->scoreboard();
            bool bad_reg = false;
            bool mem_not_pending = false;
            sb.pendingMask().forEach([&](RegIndex r) {
                if (r >= kernel.regsPerThread())
                    bad_reg = true;
            });
            sb.memPendingMask().forEach([&](RegIndex r) {
                if (!sb.pendingMask().test(r))
                    mem_not_pending = true;
            });
            if (bad_reg) {
                std::ostringstream oss;
                oss << "warp " << warp->id()
                    << " scoreboard tracks a register >= regsPerThread ("
                    << kernel.regsPerThread() << ")";
                fail("scoreboard-range", oss.str(), cta->gridId(), sm_id,
                     now);
            }
            if (mem_not_pending) {
                std::ostringstream oss;
                oss << "warp " << warp->id()
                    << " scoreboard marks a memory write that is not "
                       "pending";
                fail("scoreboard-mem", oss.str(), cta->gridId(), sm_id, now);
            }
        }
    }

    if (active != sm.activeCtaCount()) {
        std::ostringstream oss;
        oss << "active-CTA counter reads " << sm.activeCtaCount() << " but "
            << active << " resident CTAs are Active";
        fail("cta-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.activeWarpSlotsUsed() != active * kernel.warpsPerCta()) {
        std::ostringstream oss;
        oss << "warp-slot counter reads " << sm.activeWarpSlotsUsed()
            << " but " << active << " active CTAs need "
            << active * kernel.warpsPerCta();
        fail("slot-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.activeThreadSlotsUsed() != active * kernel.threadsPerCta()) {
        std::ostringstream oss;
        oss << "thread-slot counter reads " << sm.activeThreadSlotsUsed()
            << " but " << active << " active CTAs need "
            << active * kernel.threadsPerCta();
        fail("slot-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.shmemUsed() != shmem_expected) {
        std::ostringstream oss;
        oss << "shared-memory counter reads " << sm.shmemUsed()
            << " B but resident CTAs account for " << shmem_expected << " B";
        fail("shmem-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (active > cfg.maxCtas ||
        sm.activeWarpSlotsUsed() > cfg.maxWarps ||
        sm.activeThreadSlotsUsed() > cfg.maxThreads) {
        fail("slot-limits", "active CTA/warp/thread slots exceed Table I "
                            "scheduler limits",
             kInvalidId, sm_id, now);
    }
    if (sm.residentCtas().size() > cfg.maxResidentCtas ||
        sm.residentWarpCount() > cfg.maxResidentWarps) {
        fail("residency-limits",
             "resident CTAs/warps exceed the residency caps", kInvalidId,
             sm_id, now);
    }

    // The hot path trusts incrementally maintained counters; re-derive
    // each from a full scan so drift is caught at the next audit.
    if (sm.pendingCtaCount() != sm.scanPendingCtaCount()) {
        std::ostringstream oss;
        oss << "pending-CTA counter reads " << sm.pendingCtaCount()
            << " but " << sm.scanPendingCtaCount()
            << " resident CTAs are Pending";
        fail("cta-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.residentWarpCount() != sm.scanResidentWarpCount()) {
        std::ostringstream oss;
        oss << "resident-warp counter reads " << sm.residentWarpCount()
            << " but resident CTAs hold " << sm.scanResidentWarpCount()
            << " warps";
        fail("warp-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.activeLiveWarps() != sm.scanActiveLiveWarps()) {
        std::ostringstream oss;
        oss << "active-live-warp counter reads " << sm.activeLiveWarps()
            << " but active CTAs hold " << sm.scanActiveLiveWarps()
            << " unfinished warps";
        fail("warp-accounting", oss.str(), kInvalidId, sm_id, now);
    }

    // The policies' per-tick scans iterate the compact state lists; they
    // must mirror residentCtas() filtered by state, in the same order.
    {
        std::size_t a = 0, p = 0;
        const auto &alist = sm.activeCtaList();
        const auto &plist = sm.pendingCtaList();
        bool list_ok = true;
        for (const auto &cta : sm.residentCtas()) {
            if (cta->state() == CtaState::Active)
                list_ok = list_ok && a < alist.size() &&
                          alist[a++] == cta.get();
            else if (cta->state() == CtaState::Pending)
                list_ok = list_ok && p < plist.size() &&
                          plist[p++] == cta.get();
        }
        if (!list_ok || a != alist.size() || p != plist.size()) {
            fail("cta-accounting",
                 "active/pending CTA lists diverge from resident set",
                 kInvalidId, sm_id, now);
        }
    }

    // The issue stage trusts each scheduled warp's readiness cache and
    // its scheduler's wake bound; re-derive both from the scoreboards.
    for (const WarpScheduler &sched : sm.schedulers()) {
        for (const Warp *warp : sched.warps()) {
            const GridCtaId cta = warp->cta()->gridId();
            if (warp->owner() != &sched) {
                std::ostringstream oss;
                oss << "warp " << warp->id() << " sits on scheduler "
                    << sched.id() << " but names another owner";
                fail("warp-readiness", oss.str(), cta, sm_id, now);
            }
            Cycle op_ready = 0;
            Cycle mem_horizon = 0;
            if (!warp->finished() && !warp->pastEnd()) {
                const Instruction &instr = warp->currentInstr();
                op_ready = warp->scoreboard().operandReadyCycle(instr);
                mem_horizon = warp->scoreboard().memoryHorizon(instr);
            }
            if (warp->operandReadyCycle() != op_ready ||
                warp->memoryHorizon() != mem_horizon) {
                std::ostringstream oss;
                oss << "warp " << warp->id() << " caches operand-ready "
                    << warp->operandReadyCycle() << " / memory horizon "
                    << warp->memoryHorizon() << " but its scoreboard says "
                    << op_ready << " / " << mem_horizon;
                fail("warp-readiness", oss.str(), cta, sm_id, now);
            }
            if (sched.nextDue() > warp->wakeCycle()) {
                std::ostringstream oss;
                oss << "scheduler " << sched.id() << " wake bound "
                    << sched.nextDue() << " passes warp " << warp->id()
                    << "'s wake " << warp->wakeCycle();
                fail("warp-readiness", oss.str(), cta, sm_id, now);
            }
        }
    }

    // Policy-specific invariants: PCRF chains, ACRF accounting, monitor
    // legality, SRP holdings — whatever the bound scheme maintains.
    gpu.policy().audit(sm, now);
}

void
InvariantAuditor::auditDispatcher(Gpu &gpu, Cycle now) const
{
    const CtaDispatcher &disp = gpu.dispatcher();
    const unsigned popped = disp.gridCtas() - disp.remaining();
    unsigned resident = 0;
    for (auto &sm : gpu.sms())
        resident += sm->residentCtas().size();
    if (disp.completed() > disp.gridCtas() ||
        popped != disp.completed() + resident) {
        std::ostringstream oss;
        oss << "grid accounting broken: " << popped << " CTAs dispatched, "
            << disp.completed() << " completed, " << resident
            << " resident";
        fail("dispatch-conservation", oss.str(), kInvalidId, kInvalidId,
             now);
    }
}

} // namespace finereg
