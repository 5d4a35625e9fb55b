/**
 * @file
 * SwitchingPolicy: the CTA-switching discipline shared by VT, Reg+DRAM,
 * VT+RegMutex and FineReg (Fig. 13's four schemes). The engine launches
 * CTAs into free scheduler slots, swaps out an active CTA whose warps all
 * wait on memory, and brings a ready pending CTA back. The schemes differ
 * only in where a suspended CTA's registers live — the register file, DRAM,
 * the shared register pool, or the PCRF — so each derived policy is a
 * context store: a handful of hooks that say whether a CTA fits, move its
 * registers, and release them. DESIGN.md §6 lists the hooks and the
 * per-store behaviours the engine preserves.
 */

#ifndef FINEREG_POLICIES_SWITCHING_POLICY_HH
#define FINEREG_POLICIES_SWITCHING_POLICY_HH

#include <vector>

#include "policies/pending_ready.hh"
#include "policies/policy.hh"
#include "sm/sm.hh"

namespace finereg
{

class SwitchingPolicy : public Policy
{
  public:
    void tick(Sm &sm, Cycle now) final;
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) final;
    bool rfDepletionBlocked(const Sm &sm, Cycle now) const final;
    Cycle nextEventCycle(const Sm &sm, Cycle now) const final;

    /** Auditor: Cta::policyReadyCycle mirrors the pending-ready set. */
    void audit(const Sm &sm, Cycle now) const override;

  protected:
    /** Whether a store has room for a CTA's registers. */
    enum class Room
    {
        Yes,
        No,       ///< Not now; try the next option.
        Depleted, ///< Work is blocked by register depletion (Fig. 14).
    };

    /** What a store did with a stalled CTA (see switchOut). */
    enum class SwitchOut
    {
        Evicted, ///< Suspended; the engine brings in a partner.
        Swapped, ///< Suspended and a partner already brought in.
        Refused, ///< Kept active: the store is full (Fig. 14 depletion).
    };

    /** Derived stores must call this from their own onBind(). */
    void onBind() override;

    // Context-store hooks -------------------------------------------------

    /** Room for a fresh grid CTA's registers. */
    virtual Room roomForFresh(const Sm &sm) const = 0;

    /** Room for a fresh CTA once a stalled one is switched out. */
    virtual bool
    roomToGrow(const Sm &sm) const
    {
        return roomForFresh(sm) != Room::No;
    }

    /** Give a just-launched CTA its registers. */
    virtual void allocate(Sm &sm, Cta &cta) = 0;

    /** Cheap per-SM check before a free slot looks for a CTA to resume:
     * false skips the pending scan. */
    virtual bool roomToResume(const Sm &) const { return true; }

    /**
     * Bring pending @p cta back onto the chip with @p latency extra wake
     * delay (the engine then drops it from the pending-ready set); or,
     * without side effects, say why it does not fit.
     */
    virtual Room
    tryResume(Sm &sm, Cta &cta, Cycle now, Cycle latency);

    /**
     * Move a fully stalled active CTA's context off the pipeline; @p ready
     * is the partner the engine picked (nullptr: a fresh CTA). The default
     * parks the CTA until its estimated operand-ready cycle.
     */
    virtual SwitchOut switchOut(Sm &sm, Cta &cta, Cycle now, Cta *ready);

    /** A stalled CTA found neither a fresh nor a ready partner. */
    virtual void noPartner(Sm &, Cta &, Cycle) {}

    /** A CTA retired: free its registers. */
    virtual void release(Sm &sm, Cta &cta) = 0;

    /** Second storage tier (Reg+DRAM): bring one ready CTA back after the
     * on-chip resumes; true when one came back. */
    virtual bool resumeSecondTier(Sm &, Cycle) { return false; }

    /** Soonest ready cycle in the second tier (kNoCycle when empty). */
    virtual Cycle secondTierReady(const Sm &) const { return kNoCycle; }

    /** Extra wake latency of a resume that refills a free slot. */
    virtual Cycle refillLatency() const { return switchLatency(); }

    /** Pick a ready pending partner before a fresh CTA when switching. */
    virtual bool resumeBeforeLaunch() const { return false; }

    // Engine services for the stores --------------------------------------

    /** Track suspended @p cta as pending until @p ready. */
    void park(const Sm &sm, Cta &cta, Cycle ready);

    /** Stop tracking @p cta as pending. */
    void unpark(const Sm &sm, Cta &cta);

    /** Launch the next grid CTA and allocate its registers. */
    Cta *launchFresh(Sm &sm, Cycle now);

    /** Fixed cost of initiating a CTA switch (pipeline drain). */
    Cycle switchLatency() const;

    /** True once the pending set is large enough to hide stalls; growth
     * beyond this only enlarges the cache working set. */
    bool pendingSaturated(const Sm &sm) const;

  private:
    struct SmState
    {
        /** On-chip pending CTA -> estimated ready cycle. */
        PendingReadySet pendingReady;

        /** Fig. 14 flag: this tick, schedulable work was blocked on
         * register space. */
        bool depleted = false;
    };

    SmState &state(const Sm &sm) const;

    /** Pending on-chip CTA with the smallest ready cycle (<= @p at_most);
     * nullptr when none qualify. Ties go to the earlier launch. */
    Cta *bestPendingCta(const Sm &sm, Cycle at_most) const;

    /** Resume ready pending CTAs and launch grid CTAs into free slots. */
    void fillActiveSlots(Sm &sm, Cycle now);

    /** Switch fully stalled active CTAs out for fresh or ready ones. */
    void switchStalledCtas(Sm &sm, Cycle now);

    /** After an eviction, fill the slot with a fresh or ready CTA. */
    void bringIn(Sm &sm, Cycle now, bool can_grow, Cta *ready);

    /**
     * CTAs per SM a conventional GPU could keep active for this kernel:
     * min(CTA slots, warp slots, thread slots, full-RF fit, shmem fit).
     * Scales the growth damper. A pure function of the kernel and the SM
     * config, so it is computed once.
     */
    unsigned baselineActiveEstimate(const Sm &sm) const;

    /**
     * Active CTAs whose warps are all blocked on global memory this
     * cycle (Sec. IV-A's switch candidates), in launch order. Memoizes
     * each CTA's stalled-until horizon so warps are not rescanned every
     * cycle. Returns an internal scratch vector, valid until the next call.
     */
    const std::vector<Cta *> &collectStalledCtas(Sm &sm, Cycle now);

    mutable std::vector<SmState> states_;

    /** Cache for baselineActiveEstimate (0 = not yet computed). */
    mutable unsigned baselineEstimate_ = 0;

    std::vector<Cta *> stalledScratch_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_SWITCHING_POLICY_HH
