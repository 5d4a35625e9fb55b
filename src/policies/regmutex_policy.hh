/**
 * @file
 * VT+RegMutex comparator (Sec. VI-A). The register file is split into a
 * base-register-set (BRS) pool — each CTA statically allocates only the BRS
 * fraction of its registers — and a shared register pool (SRP) that serves
 * the remaining "extended" registers on demand. More CTAs fit (smaller
 * per-CTA footprint, so VT-style growth goes further), but an activating
 * CTA must win enough SRP for its extended registers, and a stalled CTA
 * keeps the SRP its *live* extended registers occupy — the contention
 * pathology Figs. 13/14 quantify.
 */

#ifndef FINEREG_POLICIES_REGMUTEX_POLICY_HH
#define FINEREG_POLICIES_REGMUTEX_POLICY_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "policies/switching_policy.hh"
#include "regfile/register_file.hh"

namespace finereg
{

class RegMutexPolicy : public SwitchingPolicy
{
  public:
    const char *name() const override { return "VT+RegMutex"; }

    /** Auditor: BRS allocation accounting and SRP holding conservation. */
    void audit(const Sm &sm, Cycle now) const override;

    /** Per-thread BRS register count for the bound kernel. */
    unsigned brsRegsPerThread(const Sm &sm) const;

    /** Extended (SRP-served) warp-registers one CTA needs when active. */
    unsigned extendedWarpRegsPerCta(const Sm &sm) const;

  protected:
    void onBind() override;

    /** The context store: BRS for every resident CTA; active CTAs hold
     * their full extended set in the SRP, suspended ones keep only the
     * live part of it. A refused SRP grant is a depletion stall. */
    Room roomForFresh(const Sm &sm) const override;
    void allocate(Sm &sm, Cta &cta) override;
    Room tryResume(Sm &sm, Cta &cta, Cycle now, Cycle latency) override;
    SwitchOut switchOut(Sm &sm, Cta &cta, Cycle now, Cta *ready) override;
    void release(Sm &sm, Cta &cta) override;

  private:
    struct SmState
    {
        std::unique_ptr<RegFileAllocator> brsPool;
        std::unique_ptr<RegFileAllocator> srpPool;

        /** CTA -> SRP warp-registers currently held. */
        std::unordered_map<GridCtaId, unsigned> srpHeld;

        /** CTA -> SRP allocator handle (0 when holding nothing). */
        std::unordered_map<GridCtaId, unsigned> srpHandle;
    };

    SmState &state(const Sm &sm) const { return *states_[sm.id()]; }

    /** BRS warp-registers one CTA holds while resident. */
    unsigned brsWarpRegsPerCta(const Sm &sm) const;

    /** Adjust a CTA's SRP holding to @p target warp-registers; returns
     * false (no change) when growth exceeds the free pool. */
    bool setSrpHolding(SmState &st, GridCtaId cta, unsigned target);

    /** Live extended warp-registers of a stalled CTA (what it keeps). */
    unsigned liveExtendedRegs(const Sm &sm, const Cta &cta) const;

    mutable std::vector<std::unique_ptr<SmState>> states_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_REGMUTEX_POLICY_HH
