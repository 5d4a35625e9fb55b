/**
 * @file
 * Per-warp scoreboard: tracks in-flight register writes so dependent
 * instructions stall until their operands land (stall-on-use). It also
 * remembers which pending writes come from global memory — the signal the
 * CTA-stall detector uses to classify a warp as memory-blocked.
 */

#ifndef FINEREG_SM_SCOREBOARD_HH
#define FINEREG_SM_SCOREBOARD_HH

#include <algorithm>
#include <array>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace finereg
{

class Scoreboard
{
  public:
    /** Record that @p reg is written and becomes readable at @p ready. */
    void
    recordWrite(RegIndex reg, Cycle ready, bool from_global_mem)
    {
        readyAt_[reg] = ready;
        pending_.set(reg);
        if (from_global_mem)
            fromMem_.set(reg);
        else
            fromMem_.reset(reg);
    }

    /**
     * Earliest cycle at which every operand of @p instr is available: the
     * latest recorded ready time of its sources (RAW) and destination
     * (WAW). It is <= t exactly when every pending operand has settled by
     * t; 0 when none was ever written.
     */
    Cycle
    operandReadyCycle(const Instruction &instr) const
    {
        Cycle latest = 0;
        auto consider = [&](int reg) {
            if (reg >= 0)
                latest = std::max(latest, readyAt_[reg]);
        };
        for (int src : instr.srcs)
            consider(src);
        consider(instr.dst);
        return latest;
    }

    /**
     * Cycle until which @p instr waits on an outstanding global-memory
     * load: blockedOnMemory(instr, t) holds exactly when t is below it.
     * 0 when no operand comes from global memory.
     */
    Cycle
    memoryHorizon(const Instruction &instr) const
    {
        Cycle latest = 0;
        auto consider = [&](int reg) {
            if (reg >= 0 && fromMem_.test(static_cast<RegIndex>(reg)))
                latest = std::max(latest, readyAt_[reg]);
        };
        for (int src : instr.srcs)
            consider(src);
        consider(instr.dst);
        return latest;
    }

    /**
     * True when @p instr cannot issue at @p now *and* at least one blocking
     * operand is an outstanding global-memory load. The reference
     * definition memoryHorizon() is checked against.
     */
    bool
    blockedOnMemory(const Instruction &instr, Cycle now) const
    {
        bool blocked_mem = false;
        auto consider = [&](int reg) {
            if (reg < 0)
                return;
            const auto r = static_cast<RegIndex>(reg);
            if (pending_.test(r) && readyAt_[r] > now && fromMem_.test(r))
                blocked_mem = true;
        };
        for (int src : instr.srcs)
            consider(src);
        consider(instr.dst);
        return blocked_mem;
    }

    /** Latest outstanding-write completion, or @p now when none pending. */
    Cycle
    lastPendingCycle(Cycle now) const
    {
        Cycle latest = now;
        pending_.forEach([&](RegIndex r) {
            if (readyAt_[r] > now)
                latest = std::max(latest, readyAt_[r]);
        });
        return latest;
    }

    void
    clear()
    {
        readyAt_.fill(0);
        pending_.clear();
        fromMem_.clear();
    }

    // Auditor introspection --------------------------------------------------

    /** Registers with a recorded write since the last clear() (settled
     * writes included: readiness compares ready cycles, not this mask). */
    const RegBitVec &pendingMask() const { return pending_; }

    /** Subset of pendingMask() whose writes come from global memory. */
    const RegBitVec &memPendingMask() const { return fromMem_; }

    /** Recorded completion cycle of the last write to @p reg. */
    Cycle readyAtOf(RegIndex reg) const { return readyAt_[reg]; }

  private:
    std::array<Cycle, kMaxRegsPerThread> readyAt_{};
    RegBitVec pending_;
    RegBitVec fromMem_;
};

} // namespace finereg

#endif // FINEREG_SM_SCOREBOARD_HH
