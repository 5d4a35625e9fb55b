/**
 * @file
 * Warp: 32 threads executing in lockstep. Carries the SIMT reconvergence
 * stack (PDOM divergence handling), the scoreboard, loop trip counters, and
 * per-memory-instruction execution counts used for deterministic address
 * generation.
 */

#ifndef FINEREG_SM_WARP_HH
#define FINEREG_SM_WARP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sm/kernel_context.hh"
#include "sm/scoreboard.hh"

namespace finereg
{

class Cta;
class WarpScheduler;

/** Why a warp cannot issue right now. */
enum class BlockReason : unsigned char
{
    None,      ///< Issuable.
    Execution, ///< Scoreboard dependence on a short-latency op.
    Memory,    ///< Scoreboard dependence on a global-memory load.
    Barrier,   ///< Waiting at a CTA barrier.
    Finished,  ///< All lanes exited.
};

class Warp
{
  public:
    /**
     * @p seed drives this warp's private stochastic stream (branch
     * outcomes, divergence masks, address reuse). Seeding per warp from
     * the grid CTA id makes the executed instruction sequence a pure
     * function of the kernel and seed — independent of issue timing, CTA
     * placement, and injected faults.
     */
    Warp(Cta *cta, WarpId id, const KernelContext &context,
         std::uint64_t seed = 0);

    Cta *cta() const { return cta_; }
    WarpId id() const { return id_; }

    /** Private deterministic RNG for this warp's execution randomness. */
    Rng &rng() { return rng_; }

    // SIMT stack ------------------------------------------------------------

    struct StackEntry
    {
        Pc pc;
        std::uint32_t mask;
        Pc reconvPc;
    };

    Pc pc() const { return stack_.back().pc; }
    void setPc(Pc pc) { stack_.back().pc = pc; }
    std::uint32_t activeMask() const { return stack_.back().mask; }
    unsigned activeLanes() const;

    const std::vector<StackEntry> &simtStack() const { return stack_; }

    /**
     * Diverge at the current PC: the current entry becomes the
     * reconvergence entry, and the two path entries are pushed (taken path
     * on top, so it executes first).
     */
    void diverge(Pc taken_pc, std::uint32_t taken_mask, Pc fall_pc,
                 Pc reconv_pc);

    /** Pop reconverged entries; returns true if the warp is mid-divergence
     * and just merged. */
    void reconvergeIfNeeded();

    /** Mark the current stack entry's lanes as exited. */
    void exitCurrentPath();

    bool finished() const { return finished_; }

    // Scheduling state -------------------------------------------------------

    /** The scoreboard. A write recorded here is seen by the readiness
     * cache only at the next refreshReadiness(). */
    Scoreboard &scoreboard() { return scoreboard_; }
    const Scoreboard &scoreboard() const { return scoreboard_; }

    /** Earliest cycle the front end may issue from this warp. Raising it
     * can only delay the wake cycle, so the owner's bound stays valid. */
    Cycle earliestIssue() const { return earliestIssue_; }
    void
    setEarliestIssue(Cycle c)
    {
        earliestIssue_ = std::max(earliestIssue_, c);
    }

    /** Entering a barrier parks the warp; leaving it wakes the warp at
     * its wake cycle and tells the owner scheduler. */
    bool atBarrier() const { return atBarrier_; }
    void setAtBarrier(bool v);

    // Readiness cache ----------------------------------------------------
    //
    // The scoreboard answers for the current instruction, which changes
    // only when this warp issues; refreshReadiness() recomputes the cache
    // once per issue, and every other query reads it. The wake cycle is
    // derived from it on read.

    /**
     * First cycle the warp can issue, ignoring the per-cycle memory port:
     * max(earliestIssue(), operandReadyCycle()); kNoCycle while finished
     * or at a barrier.
     */
    Cycle
    wakeCycle() const
    {
        return finished_ || atBarrier_
                   ? kNoCycle
                   : std::max(earliestIssue_, operandReady_);
    }

    /** Operand-ready cycle of the current instruction (0 past the end). */
    Cycle operandReadyCycle() const { return operandReady_; }

    /** Memory horizon of the current instruction: it is blocked on global
     * memory at t exactly when t < memoryHorizon(). */
    Cycle memoryHorizon() const { return memHorizon_; }

    /** The current instruction needs the SM's global-memory port. */
    bool needsMemPort() const { return needsMemPort_; }

    /** Recompute the cache from the scoreboard and current instruction,
     * and lower the owner scheduler's wake bound to the new wake. */
    void refreshReadiness();

    /** Scheduler whose list holds this warp (nullptr when unscheduled). */
    WarpScheduler *owner() const { return owner_; }
    void setOwner(WarpScheduler *s) { owner_ = s; }

    // Loop and memory side state ---------------------------------------------

    /** Remaining iterations of loop @p loop_id (0 = counter idle). */
    unsigned loopRemaining(int loop_id) const { return loopRemaining_[loop_id]; }
    void setLoopRemaining(int loop_id, unsigned n) { loopRemaining_[loop_id] = n; }

    /** Dynamic execution count of memory instruction @p mem_id. */
    std::uint32_t memExecCount(int mem_id) const { return memExec_[mem_id]; }
    void bumpMemExecCount(int mem_id) { ++memExec_[mem_id]; }

    Addr lastMemAddr(int mem_id) const { return lastAddr_[mem_id]; }
    void setLastMemAddr(int mem_id, Addr a) { lastAddr_[mem_id] = a; }

    const KernelContext &context() const { return *context_; }

    /** Next instruction this warp will execute; finished() must be false. */
    const Instruction &currentInstr() const;

    /** True when the current PC has run past the kernel end. */
    bool pastEnd() const { return pc() >= context_->endPc(); }

  private:
    Cta *cta_;
    WarpId id_;
    bool finished_ = false;
    bool atBarrier_ = false;
    bool needsMemPort_ = false;
    const KernelContext *context_;

    // What the issue stage reads, ahead of the scoreboard so that a
    // scheduler scan touches one cache line per warp.
    Cycle earliestIssue_ = 0;
    Cycle operandReady_ = 0;
    Cycle memHorizon_ = 0;
    WarpScheduler *owner_ = nullptr;

    std::vector<StackEntry> stack_;
    Scoreboard scoreboard_;

    std::vector<unsigned> loopRemaining_;
    std::vector<std::uint32_t> memExec_;
    std::vector<Addr> lastAddr_;
    Rng rng_;
};

} // namespace finereg

#endif // FINEREG_SM_WARP_HH
