/**
 * @file
 * Cooperative thread array: the unit FineReg's register management operates
 * on. A CTA is Active (warps schedulable, registers in the ACRF), Pending
 * (evicted from the pipeline, live registers in the PCRF / DRAM depending on
 * policy), or Done. The Cta tracks barrier state, its full-memory-stall
 * window, and the timing probes Table III and Fig. 12 need.
 */

#ifndef FINEREG_SM_CTA_HH
#define FINEREG_SM_CTA_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "sm/warp.hh"

namespace finereg
{

class CtaValues;

enum class CtaState : unsigned char
{
    Active,  ///< Executing: context in pipeline, registers in ACRF.
    Pending, ///< Stalled and evicted; awaiting reactivation.
    Done,    ///< All warps finished.
};

class Cta
{
  public:
    /**
     * @p seed_base seeds the warps' private RNG streams (warp w draws from
     * seed_base mixed with w). Callers derive it from the grid CTA id so
     * the execution path is independent of placement and timing.
     */
    Cta(GridCtaId grid_id, unsigned launch_seq, const KernelContext &context,
        std::uint64_t seed_base = 0);
    ~Cta();

    GridCtaId gridId() const { return gridId_; }

    /** Monotone launch sequence on this SM (GTO "oldest" order). */
    unsigned launchSeq() const { return launchSeq_; }

    CtaState state() const { return state_; }
    void setState(CtaState s) { state_ = s; }

    std::vector<std::unique_ptr<Warp>> &warps() { return warps_; }
    const std::vector<std::unique_ptr<Warp>> &warps() const { return warps_; }

    unsigned numWarps() const { return warps_.size(); }

    unsigned finishedWarps() const { return finishedWarps_; }
    void noteWarpFinished() { ++finishedWarps_; }
    bool allWarpsFinished() const { return finishedWarps_ == warps_.size(); }

    const KernelContext &context() const { return *context_; }

    // Barrier ---------------------------------------------------------------

    /**
     * A warp arrived at a barrier.
     *
     * @retval true when this arrival releases the barrier (all live warps
     *         arrived); the caller must then wake the waiting warps.
     */
    bool arriveAtBarrier();
    void releaseBarrier() { barrierCount_ = 0; }

    // Stall window and probes ---------------------------------------------

    /** Verdict of checkFullStall(). */
    struct StallCheck
    {
        /** Fully stalled on memory for now < until (0: not stalled). */
        Cycle until = 0;
        /** Not stalled: check again at this cycle, when an issue shadow
         * ends (kNoCycle: not before a warp of this CTA changes). */
        Cycle recheckAt = kNoCycle;
    };

    /**
     * Is every unfinished warp blocked on global memory at @p now — the
     * condition that makes the CTA a switch candidate (Sec. IV-A)? Reads
     * the warps' cached readiness. A stalled CTA counts as stalled until
     * its first warp's operands are all back (the earliest operand-ready
     * cycle); a warp still in its issue shadow defers the verdict to the
     * end of that shadow. Barrier-parked warps neither run nor block.
     */
    StallCheck checkFullStall(Cycle now) const;

    /**
     * The CTA's full-memory-stall window, kept by the SM
     * (Sm::openedStallWindows): the SM re-checks a CTA after its warps
     * change and opens a numbered window when it turns fully stalled.
     */
    struct StallWindow
    {
        Cycle until = 0;        ///< The window is open while now < until.
        Cycle checkAt = 0;      ///< Re-check at or after this cycle.
        unsigned episode = 0;   ///< Windows opened so far.
        bool watched = false;   ///< On the SM's re-check list.
    };

    StallWindow &stallWindow() { return stall_; }
    const StallWindow &stallWindow() const { return stall_; }

    /** True while the CTA's stall window is open at @p now. */
    bool stalledAt(Cycle now) const { return now < stall_.until; }

    /** Last cycle any warp of this CTA issued (O(1), kept by the SM). */
    Cycle lastIssueCycle() const { return lastIssue_; }
    void noteIssue(Cycle now) { lastIssue_ = now; }

    /**
     * Cycle at which the CTA is worth reactivating: when at least half of
     * its blocked warps have their operands back.
     */
    Cycle estimateReadyCycle(Cycle now) const;

    /** Start (or restart after resume) the Table III stall-episode timer. */
    void startExecutionEpisode(Cycle now) { episodeStart_ = now; episodeOpen_ = true; }

    /** Open a new episode on the first issue after a closed one. */
    void
    startExecutionEpisodeIfClosed(Cycle now)
    {
        if (!episodeOpen_)
            startExecutionEpisode(now);
    }

    /** Close the episode at full stall; returns its length, or 0 if no
     * episode was open. */
    Cycle closeExecutionEpisode(Cycle now);

    // Value tracking ---------------------------------------------------------

    /**
     * Attach a functional value tracker (ref/cta_values.hh). Off by
     * default: the timing model never reads values, so tracking is pure
     * observation enabled only for differential/golden runs.
     */
    void enableValueTracking();

    /** The value tracker, or nullptr when tracking is off. */
    CtaValues *values() { return values_.get(); }
    const CtaValues *values() const { return values_.get(); }

    /** Registers-in-ACRF bookkeeping handle for policies. */
    unsigned regAllocHandle = kInvalidId;

    /**
     * Pending-ready mirror for single-tier policies: the estimated
     * operand-ready cycle while this CTA is tracked as Pending, kNoCycle
     * when untracked. Shadows the owning policy's PendingReadySet (kept
     * in lockstep at every set/erase) so the per-tick restore scans read
     * a field instead of probing a hash map.
     */
    Cycle policyReadyCycle = kNoCycle;

  private:
    GridCtaId gridId_;
    unsigned launchSeq_;
    const KernelContext *context_;
    CtaState state_ = CtaState::Active;
    std::vector<std::unique_ptr<Warp>> warps_;
    unsigned finishedWarps_ = 0;
    unsigned barrierCount_ = 0;

    std::unique_ptr<CtaValues> values_;

    Cycle episodeStart_ = 0;
    bool episodeOpen_ = false;

    Cycle lastIssue_ = 0;
    StallWindow stall_;
};

} // namespace finereg

#endif // FINEREG_SM_CTA_HH
