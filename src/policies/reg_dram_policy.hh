/**
 * @file
 * Reg+DRAM: the Zorua-like comparator (Sec. VI-A). Virtual Thread's on-chip
 * switching plus a second tier of pending CTAs whose register contexts are
 * written to off-chip DRAM, freeing their register-file allocation so yet
 * more CTAs can launch. Every demotion/promotion moves the CTA's full
 * register context across the DRAM channel (TrafficClass::CtaContext) —
 * the traffic Fig. 15 charges this scheme for.
 */

#ifndef FINEREG_POLICIES_REG_DRAM_POLICY_HH
#define FINEREG_POLICIES_REG_DRAM_POLICY_HH

#include <vector>

#include "policies/pending_ready.hh"
#include "policies/virtual_thread_policy.hh"

namespace finereg
{

class RegDramPolicy : public VirtualThreadPolicy
{
  public:
    const char *name() const override { return "Reg+DRAM"; }

  protected:
    void onBind() override;

    void release(Sm &sm, Cta &cta) override;

    /** No on-chip partner: demote the stalled CTA to DRAM when that pays. */
    void noPartner(Sm &sm, Cta &cta, Cycle now) override;

    /** Promote a ready DRAM-tier CTA when its registers fit again. */
    bool resumeSecondTier(Sm &sm, Cycle now) override;
    Cycle secondTierReady(const Sm &sm) const override;

  private:
    struct DramState
    {
        /** CTAs whose register context lives in DRAM, mapped to the cycle
         * their operands are expected back (stall resolution). */
        PendingReadySet inDram;

        /** Demotion rate limiter: context movement is budgeted to a
         * small fraction of channel bandwidth (Fig. 15 measures
         * Reg+DRAM at +7-10% traffic, not a channel takeover). */
        Cycle nextDemoteAllowed = 0;
    };

    DramState &dram(const Sm &sm) const { return dramStates_[sm.id()]; }

    /** Full per-CTA register context size in bytes. */
    std::uint64_t contextBytes(const Sm &sm) const;

    /** Promote a DRAM CTA back: allocate RF, stream context in, resume. */
    void promoteFromDram(Sm &sm, Cta &cta, Cycle now);

    Cta *bestDramPendingCta(const Sm &sm, Cycle at_most) const;

    mutable std::vector<DramState> dramStates_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_REG_DRAM_POLICY_HH
