#include "policies/reg_dram_policy.hh"

#include "core/gpu_config.hh"
#include "sm/gpu.hh"

namespace finereg
{

void
RegDramPolicy::onBind()
{
    VirtualThreadPolicy::onBind();
    dramStates_.assign(gpu().config().numSms, DramState{});
}

std::uint64_t
RegDramPolicy::contextBytes(const Sm &sm) const
{
    return sm.context().kernel().regBytesPerCta();
}

void
RegDramPolicy::release(Sm &sm, Cta &cta)
{
    dram(sm).inDram.erase(cta.gridId());
    if (cta.regAllocHandle != kInvalidId)
        VirtualThreadPolicy::release(sm, cta);
}

void
RegDramPolicy::promoteFromDram(Sm &sm, Cta &cta, Cycle now)
{
    allocate(sm, cta);
    dram(sm).inDram.erase(cta.gridId());

    const Cycle loaded = sm.mem().offchipTransfer(
        now, contextBytes(sm), TrafficClass::CtaContext);
    sm.resumeCta(cta, now, (loaded - now) + switchLatency());
}

Cta *
RegDramPolicy::bestDramPendingCta(const Sm &sm, Cycle at_most) const
{
    const DramState &ds = dram(sm);
    // O(1) fast path: nothing in the DRAM tier can be ready by at_most.
    if (ds.inDram.minReady() > at_most)
        return nullptr;
    Cta *best = nullptr;
    Cycle best_ready = kNoCycle;
    for (Cta *cta : sm.pendingCtaList()) {
        const Cycle ready = ds.inDram.readyCycle(cta->gridId());
        if (ready <= at_most && ready < best_ready) {
            best = cta;
            best_ready = ready;
        }
    }
    return best;
}

bool
RegDramPolicy::resumeSecondTier(Sm &sm, Cycle now)
{
    if (roomForFresh(sm) != Room::Yes)
        return false;
    Cta *dram_cta = bestDramPendingCta(sm, now);
    if (!dram_cta)
        return false;
    promoteFromDram(sm, *dram_cta, now);
    return true;
}

Cycle
RegDramPolicy::secondTierReady(const Sm &sm) const
{
    return dram(sm).inDram.minReady();
}

void
RegDramPolicy::noPartner(Sm &sm, Cta &cta, Cycle now)
{
    DramState &ds = dram(sm);
    // The paper tunes the DRAM-pending count per application (Sec. VI-A).
    // For very large contexts the best setting is zero — the transfer
    // cost can never be recovered — which reduces this scheme to VT.
    const unsigned dram_cap =
        contextBytes(sm) > 16 * 1024 ? 0
                                     : config().policy.maxDramPendingCtas;
    // Cheap gates first: the readiness estimate sorts a per-warp vector.
    if (ds.inDram.size() >= dram_cap || pendingSaturated(sm) ||
        now < ds.nextDemoteAllowed || !sm.hasResidencyHeadroom() ||
        !(dispatcher().hasWork() || bestDramPendingCta(sm, now))) {
        return;
    }
    // Demote only when the stall comfortably outlasts the round-trip of
    // the full register context through the DRAM channel — otherwise the
    // context traffic melts the channel (the effect Fig. 15 charges this
    // scheme for).
    const Cycle ready_estimate = cta.estimateReadyCycle(now);
    const auto ctx_cycles = static_cast<Cycle>(
        contextBytes(sm) / config().mem.dram.bytesPerCycle);
    if (ready_estimate <=
        now + config().mem.dram.accessLatency / 2 + 4 * ctx_cycles) {
        return;
    }

    // Demote: free the RF and stream the full register context out; the
    // channel time is charged but the SM does not wait on the store.
    sm.suspendCta(cta, now);
    rf(sm).free(cta.regAllocHandle);
    cta.regAllocHandle = kInvalidId;
    sm.mem().offchipTransfer(now, contextBytes(sm),
                             TrafficClass::CtaContext);
    ds.inDram.set(cta.gridId(), ready_estimate);
    // Budget context movement to ~8% of channel bandwidth: a
    // demote+promote pair moves 2x the context, across all SMs.
    ds.nextDemoteAllowed = now + 2 * ctx_cycles * gpu().config().numSms * 12;

    // Use the freed registers for a ready DRAM-tier CTA or a fresh one.
    if (Cta *dram_ready = bestDramPendingCta(sm, now)) {
        promoteFromDram(sm, *dram_ready, now);
    } else if (dispatcher().hasWork() && roomForFresh(sm) == Room::Yes &&
               sm.shmemFree() >= sm.context().kernel().shmemPerCta()) {
        Cta *fresh = launchFresh(sm, now);
        for (auto &warp : fresh->warps())
            warp->setEarliestIssue(now + switchLatency());
    }
}

} // namespace finereg
