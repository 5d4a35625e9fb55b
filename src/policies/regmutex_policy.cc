#include "policies/regmutex_policy.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/gpu_config.hh"
#include "ref/cta_values.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
RegMutexPolicy::onBind()
{
    const double srp_ratio = config().policy.srpRatio;
    if (srp_ratio < 0.0 || srp_ratio >= 1.0) {
        std::ostringstream oss;
        oss << "SRP ratio " << srp_ratio << " outside [0, 1)";
        raiseConfigError(oss.str());
    }

    SwitchingPolicy::onBind();
    const std::uint64_t rf_bytes = gpu().config().sm.regFileBytes;
    const auto srp_bytes = static_cast<std::uint64_t>(rf_bytes * srp_ratio);

    states_.clear();
    for (unsigned s = 0; s < gpu().config().numSms; ++s) {
        auto st = std::make_unique<SmState>();
        st->brsPool = std::make_unique<RegFileAllocator>(
            "brs_sm" + std::to_string(s), rf_bytes - srp_bytes);
        st->srpPool = std::make_unique<RegFileAllocator>(
            "srp_sm" + std::to_string(s), srp_bytes);
        states_.push_back(std::move(st));
    }
}

unsigned
RegMutexPolicy::brsRegsPerThread(const Sm &sm) const
{
    const Kernel &kernel = sm.context().kernel();
    const unsigned regs = kernel.regsPerThread();
    const auto brs = static_cast<unsigned>(
        std::ceil(regs * config().policy.brsFraction));
    const unsigned clamped = std::max(1u, std::min(brs, regs));

    // If even one CTA's extended set cannot fit the SRP, no CTA could
    // ever launch; the hardware would fall back to full static
    // allocation (SRP disabled for this kernel).
    const auto srp_capacity = static_cast<unsigned>(
        gpu().config().sm.regFileBytes * config().policy.srpRatio /
        kBytesPerWarpReg);
    const unsigned ext_per_cta =
        (regs - clamped) * kernel.warpsPerCta();
    if (ext_per_cta > srp_capacity)
        return regs;
    return clamped;
}

unsigned
RegMutexPolicy::extendedWarpRegsPerCta(const Sm &sm) const
{
    const Kernel &kernel = sm.context().kernel();
    const unsigned ext =
        kernel.regsPerThread() - brsRegsPerThread(sm);
    return ext * kernel.warpsPerCta();
}

unsigned
RegMutexPolicy::brsWarpRegsPerCta(const Sm &sm) const
{
    return brsRegsPerThread(sm) * sm.context().kernel().warpsPerCta();
}

bool
RegMutexPolicy::setSrpHolding(SmState &st, GridCtaId cta, unsigned target)
{
    const unsigned held =
        st.srpHeld.count(cta) ? st.srpHeld[cta] : 0;
    if (target == held)
        return true;

    if (target > held &&
        !st.srpPool->canAllocate(target - held)) {
        return false;
    }

    // Reallocate the holding as one fresh grant.
    if (st.srpHandle.count(cta) && st.srpHandle[cta] != 0)
        st.srpPool->free(st.srpHandle[cta]);
    st.srpHandle[cta] = target > 0 ? st.srpPool->allocate(target) : 0;
    st.srpHeld[cta] = target;
    return true;
}

unsigned
RegMutexPolicy::liveExtendedRegs(const Sm &sm, const Cta &cta) const
{
    const unsigned brs = brsRegsPerThread(sm);
    // Mask of extended (SRP-served) registers: bits >= brs. One AND +
    // popcount per warp instead of a per-bit walk.
    const RegBitVec ext_mask(brs >= 64 ? 0ull : ~0ull << brs);
    unsigned live_ext = 0;
    const auto &table = sm.context().liveTable();
    for (const auto &warp : cta.warps()) {
        if (warp->finished())
            continue;
        RegBitVec live;
        for (const auto &entry : warp->simtStack())
            live |= table.lookup(entry.pc);
        live_ext += (live & ext_mask).count();
    }
    return live_ext;
}

SwitchingPolicy::Room
RegMutexPolicy::roomForFresh(const Sm &sm) const
{
    const SmState &st = state(sm);
    if (!st.brsPool->canAllocate(brsWarpRegsPerCta(sm)))
        return Room::No;
    return st.srpPool->canAllocate(extendedWarpRegsPerCta(sm))
               ? Room::Yes
               : Room::Depleted;
}

void
RegMutexPolicy::allocate(Sm &sm, Cta &cta)
{
    SmState &st = state(sm);
    cta.regAllocHandle = st.brsPool->allocate(brsWarpRegsPerCta(sm));
    setSrpHolding(st, cta.gridId(), extendedWarpRegsPerCta(sm));
}

SwitchingPolicy::Room
RegMutexPolicy::tryResume(Sm &sm, Cta &cta, Cycle now, Cycle latency)
{
    // A resuming CTA must re-acquire its full extended set from the SRP
    // before re-entering the pipeline.
    if (!setSrpHolding(state(sm), cta.gridId(), extendedWarpRegsPerCta(sm)))
        return Room::Depleted;
    sm.resumeCta(cta, now, latency);
    return Room::Yes;
}

SwitchingPolicy::SwitchOut
RegMutexPolicy::switchOut(Sm &sm, Cta &cta, Cycle now, Cta *ready)
{
    // RegMutex does NOT release SRP held by live extended registers
    // when a CTA stalls; only the dead portion returns to the pool.
    const unsigned keep =
        std::min(extendedWarpRegsPerCta(sm), liveExtendedRegs(sm, cta));

    // Value tracking: the released (dead) extended registers lose
    // their contents; BRS and live extended registers survive.
    if (CtaValues *values = cta.values()) {
        const unsigned brs = brsRegsPerThread(sm);
        const unsigned regs = sm.context().kernel().regsPerThread();
        const auto &table = sm.context().liveTable();
        for (const auto &warp : cta.warps()) {
            if (warp->finished())
                continue;
            RegBitVec keep_mask;
            for (unsigned r = 0; r < brs && r < regs; ++r)
                keep_mask.set(static_cast<RegIndex>(r));
            for (const auto &entry : warp->simtStack())
                keep_mask |= table.lookup(entry.pc);
            values->dropDeadRegs(warp->id(), keep_mask);
        }
    }

    const SwitchOut out = SwitchingPolicy::switchOut(sm, cta, now, ready);
    setSrpHolding(state(sm), cta.gridId(), keep);
    return out;
}

void
RegMutexPolicy::release(Sm &sm, Cta &cta)
{
    SmState &st = state(sm);
    st.brsPool->free(cta.regAllocHandle);
    setSrpHolding(st, cta.gridId(), 0);
    st.srpHeld.erase(cta.gridId());
    st.srpHandle.erase(cta.gridId());
}

void
RegMutexPolicy::audit(const Sm &sm, Cycle now) const
{
    SwitchingPolicy::audit(sm, now);
    const SmState &st = state(sm);
    unsigned expected_brs = 0;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->regAllocHandle == kInvalidId) {
            raiseInvariant("rf-accounting",
                           "resident CTA has no BRS allocation",
                           cta->gridId(), sm.id(), now);
        }
        expected_brs += st.brsPool->allocationSize(cta->regAllocHandle);
    }
    if (st.brsPool->numAllocations() != sm.residentCtas().size() ||
        st.brsPool->usedWarpRegs() != expected_brs) {
        std::ostringstream oss;
        oss << "BRS pool holds " << st.brsPool->numAllocations()
            << " allocations / " << st.brsPool->usedWarpRegs()
            << " warp-regs vs. " << sm.residentCtas().size()
            << " resident CTAs holding " << expected_brs;
        raiseInvariant("rf-accounting", oss.str(), kInvalidId, sm.id(), now);
    }

    // SRP conservation: the pool's usage must equal the sum of per-CTA
    // holdings, and every non-zero holding must have a matching grant.
    unsigned expected_srp = 0;
    for (const auto &[cta, held] : st.srpHeld) {
        expected_srp += held;
        const auto grant = st.srpHandle.find(cta);
        const unsigned granted =
            grant == st.srpHandle.end() || grant->second == 0
                ? 0
                : st.srpPool->allocationSize(grant->second);
        if (granted != held) {
            std::ostringstream oss;
            oss << "SRP holding of " << held
                << " warp-regs backed by a grant of " << granted;
            raiseInvariant("srp-accounting", oss.str(), cta, sm.id(), now);
        }
    }
    if (st.srpPool->usedWarpRegs() != expected_srp) {
        std::ostringstream oss;
        oss << "SRP pool usage " << st.srpPool->usedWarpRegs()
            << " warp-regs vs. " << expected_srp << " held by CTAs";
        raiseInvariant("srp-accounting", oss.str(), kInvalidId, sm.id(),
                       now);
    }
}

} // namespace finereg
