#include "policies/switching_policy.hh"

#include <algorithm>

#include "core/gpu_config.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
SwitchingPolicy::onBind()
{
    states_.assign(config().numSms, SmState{});
}

SwitchingPolicy::SmState &
SwitchingPolicy::state(const Sm &sm) const
{
    return states_[sm.id()];
}

Cycle
SwitchingPolicy::switchLatency() const
{
    return config().policy.zeroSwitchLatency
               ? 0
               : config().policy.switchBaseLatency;
}

void
SwitchingPolicy::park(const Sm &sm, Cta &cta, Cycle ready)
{
    state(sm).pendingReady.set(cta.gridId(), ready);
    cta.policyReadyCycle = ready;
}

void
SwitchingPolicy::unpark(const Sm &sm, Cta &cta)
{
    state(sm).pendingReady.erase(cta.gridId());
    cta.policyReadyCycle = kNoCycle;
}

Cta *
SwitchingPolicy::bestPendingCta(const Sm &sm, Cycle at_most) const
{
    // O(1) fast path for the common per-tick probes: if even the soonest
    // tracked CTA is not ready by at_most, no scan can find a winner.
    if (state(sm).pendingReady.minReady() > at_most)
        return nullptr;
    Cta *best = nullptr;
    Cycle best_ready = kNoCycle;
    for (Cta *cta : sm.pendingCtaList()) {
        // policyReadyCycle mirrors the pending-ready set (audit-checked);
        // CTAs in a second tier read kNoCycle and never qualify.
        const Cycle ready = cta->policyReadyCycle;
        if (ready <= at_most && ready < best_ready) {
            best = cta;
            best_ready = ready;
        }
    }
    return best;
}

Cta *
SwitchingPolicy::launchFresh(Sm &sm, Cycle now)
{
    Cta *cta = sm.launchCta(dispatcher().pop(), now);
    allocate(sm, *cta);
    return cta;
}

SwitchingPolicy::Room
SwitchingPolicy::tryResume(Sm &sm, Cta &cta, Cycle now, Cycle latency)
{
    sm.resumeCta(cta, now, latency);
    return Room::Yes;
}

SwitchingPolicy::SwitchOut
SwitchingPolicy::switchOut(Sm &sm, Cta &cta, Cycle now, Cta *)
{
    park(sm, cta, cta.estimateReadyCycle(now));
    sm.suspendCta(cta, now);
    return SwitchOut::Evicted;
}

unsigned
SwitchingPolicy::baselineActiveEstimate(const Sm &sm) const
{
    if (baselineEstimate_ != 0)
        return baselineEstimate_;
    const Kernel &kernel = sm.context().kernel();
    const SmConfig &smc = config().sm;
    unsigned estimate = std::min(
        {smc.maxCtas, smc.maxWarps / kernel.warpsPerCta(),
         smc.maxThreads / kernel.threadsPerCta()});
    const std::uint64_t cta_reg_bytes = kernel.regBytesPerCta();
    if (cta_reg_bytes > 0) {
        estimate = std::min<std::uint64_t>(
            estimate, smc.regFileBytes / cta_reg_bytes);
    }
    if (kernel.shmemPerCta() > 0) {
        estimate = std::min<std::uint64_t>(
            estimate, smc.shmemBytes / kernel.shmemPerCta());
    }
    baselineEstimate_ = std::max(1u, estimate);
    return baselineEstimate_;
}

bool
SwitchingPolicy::pendingSaturated(const Sm &sm) const
{
    return sm.pendingCtaCount() >=
           config().policy.pendingGrowthFactor *
               baselineActiveEstimate(sm);
}

const std::vector<Cta *> &
SwitchingPolicy::collectStalledCtas(Sm &sm, Cycle now)
{
    std::vector<Cta *> &stalled = stalledScratch_;
    stalled.clear();
    // activeCtaList() is the Active subset of residentCtas() in the same
    // (launch-sequence) order, so the collected order is unchanged.
    for (Cta *cta : sm.activeCtaList()) {
        if (cta->lastIssueCycle() == now)
            continue;
        if (cta->stalledOnMemoryCached(now))
            stalled.push_back(cta);
    }
    return stalled;
}

void
SwitchingPolicy::fillActiveSlots(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const unsigned shmem = sm.context().kernel().shmemPerCta();

    unsigned launched = 0;
    while (sm.canActivateCta()) {
        // 1) Ready pending CTAs come back first.
        Cta *pending = roomToResume(sm) ? bestPendingCta(sm, now) : nullptr;
        if (pending) {
            const Room room = tryResume(sm, *pending, now, refillLatency());
            if (room == Room::Yes) {
                unpark(sm, *pending);
                continue;
            }
            if (room == Room::Depleted) {
                st.depleted = true; // ready work blocked on registers
                break;
            }
        }
        // 2) Then ready CTAs of a second storage tier.
        if (resumeSecondTier(sm, now))
            continue;
        // 3) Fresh grid CTAs, at most two per SM per cycle: the hardware
        //    dispatcher hands out CTAs round-robin, so one SM must not
        //    drain the grid before its neighbours get a turn.
        if (launched < 2 && dispatcher().hasWork() &&
            sm.shmemFree() >= shmem && sm.hasResidencyHeadroom()) {
            const Room room = roomForFresh(sm);
            if (room == Room::Yes) {
                launchFresh(sm, now);
                ++launched;
                continue;
            }
            if (room == Room::Depleted) {
                st.depleted = true;
                break;
            }
        }
        // 4) Nothing ready and nothing launchable: resume the soonest
        //    pending CTA so the SM is never idle-locked. (Skipped when this
        //    tick already launched fresh CTAs — more follow next cycle.)
        if (launched > 0)
            break;
        pending =
            roomToResume(sm) ? bestPendingCta(sm, kNoCycle - 1) : nullptr;
        if (pending &&
            tryResume(sm, *pending, now, refillLatency()) == Room::Yes) {
            unpark(sm, *pending);
            continue;
        }
        break;
    }
}

void
SwitchingPolicy::switchStalledCtas(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const unsigned shmem = sm.context().kernel().shmemPerCta();

    for (Cta *cta : collectStalledCtas(sm, now)) {
        // Growing the resident set: a brand-new CTA takes over the slot.
        // Growth is damped once enough pending CTAs exist to hide stalls.
        const bool can_grow = dispatcher().hasWork() &&
                              sm.shmemFree() >= shmem &&
                              sm.hasResidencyHeadroom() &&
                              !pendingSaturated(sm) && roomToGrow(sm);
        Cta *ready = bestPendingCta(sm, now);
        if (!can_grow && !ready) {
            noPartner(sm, *cta, now);
            continue;
        }
        switch (switchOut(sm, *cta, now, ready)) {
          case SwitchOut::Evicted:
            bringIn(sm, now, can_grow, ready);
            break;
          case SwitchOut::Swapped:
            break;
          case SwitchOut::Refused:
            st.depleted = true;
            break;
        }
    }
}

void
SwitchingPolicy::bringIn(Sm &sm, Cycle now, bool can_grow, Cta *ready)
{
    if (can_grow && !(ready && resumeBeforeLaunch()) &&
        roomForFresh(sm) == Room::Yes) {
        Cta *fresh = launchFresh(sm, now);
        for (auto &warp : fresh->warps())
            warp->setEarliestIssue(now + switchLatency());
        return;
    }
    if (ready && tryResume(sm, *ready, now, switchLatency()) == Room::Yes) {
        unpark(sm, *ready);
        return;
    }
    state(sm).depleted = true; // work existed; the store said no
}

void
SwitchingPolicy::tick(Sm &sm, Cycle now)
{
    state(sm).depleted = false;
    fillActiveSlots(sm, now);
    switchStalledCtas(sm, now);
}

void
SwitchingPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle)
{
    release(sm, cta);
    unpark(sm, cta);
}

bool
SwitchingPolicy::rfDepletionBlocked(const Sm &sm, Cycle) const
{
    return state(sm).depleted;
}

Cycle
SwitchingPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    // min over CTAs of max(ready, now+1) == max(min ready, now+1): the
    // clamp is monotone, so it commutes with min.
    const Cycle ready =
        std::min(state(sm).pendingReady.minReady(), secondTierReady(sm));
    return ready == kNoCycle ? kNoCycle : std::max(ready, now + 1);
}

void
SwitchingPolicy::audit(const Sm &sm, Cycle now) const
{
    const PendingReadySet &pending = state(sm).pendingReady;
    std::size_t tracked = 0;
    for (const auto &cta : sm.residentCtas()) {
        const GridCtaId id = cta->gridId();
        if (pending.contains(id)) {
            ++tracked;
            if (cta->state() != CtaState::Pending) {
                raiseInvariant("pending-ready",
                               "non-pending CTA has a pending-ready entry",
                               id, sm.id(), now);
            }
        }
        if (cta->policyReadyCycle != pending.readyCycle(id)) {
            raiseInvariant("pending-ready",
                           "CTA pending-ready mirror diverges from the "
                           "tracked ready cycle",
                           id, sm.id(), now);
        }
    }
    if (tracked != pending.size()) {
        raiseInvariant("pending-ready",
                       "pending-ready set tracks a CTA that is not resident",
                       kInvalidId, sm.id(), now);
    }
}

} // namespace finereg
