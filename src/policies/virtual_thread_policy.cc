#include "policies/virtual_thread_policy.hh"

#include <sstream>

#include "core/gpu_config.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
VirtualThreadPolicy::onBind()
{
    SwitchingPolicy::onBind();
    rfs_.clear();
    for (unsigned s = 0; s < gpu().config().numSms; ++s) {
        rfs_.push_back(std::make_unique<RegFileAllocator>(
            "vt_rf_sm" + std::to_string(s), gpu().config().sm.regFileBytes));
    }
}

SwitchingPolicy::Room
VirtualThreadPolicy::roomForFresh(const Sm &sm) const
{
    return rf(sm).canAllocate(sm.context().kernel().warpRegsPerCta())
               ? Room::Yes
               : Room::No;
}

void
VirtualThreadPolicy::allocate(Sm &sm, Cta &cta)
{
    cta.regAllocHandle =
        rf(sm).allocate(sm.context().kernel().warpRegsPerCta());
}

void
VirtualThreadPolicy::release(Sm &sm, Cta &cta)
{
    rf(sm).free(cta.regAllocHandle);
}

void
VirtualThreadPolicy::audit(const Sm &sm, Cycle now) const
{
    SwitchingPolicy::audit(sm, now);
    const RegFileAllocator &pool = rf(sm);
    unsigned holders = 0;
    unsigned expected_used = 0;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->state() == CtaState::Active &&
            cta->regAllocHandle == kInvalidId) {
            raiseInvariant("rf-accounting",
                           "active CTA has no register allocation",
                           cta->gridId(), sm.id(), now);
        }
        if (cta->regAllocHandle != kInvalidId) {
            ++holders;
            expected_used += pool.allocationSize(cta->regAllocHandle);
        }
    }
    if (pool.numAllocations() != holders ||
        pool.usedWarpRegs() != expected_used) {
        std::ostringstream oss;
        oss << pool.numAllocations() << " allocations / "
            << pool.usedWarpRegs() << " used warp-regs vs. " << holders
            << " handle-holding CTAs accounting for " << expected_used;
        raiseInvariant("rf-accounting", oss.str(), kInvalidId, sm.id(), now);
    }
}

} // namespace finereg
