#include "sm/warp.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "sm/cta.hh"
#include "sm/warp_scheduler.hh"

namespace finereg
{

void
Warp::setAtBarrier(bool v)
{
    atBarrier_ = v;
    if (owner_)
        owner_->lowerBound(wakeCycle());
}

void
Warp::refreshReadiness()
{
    if (finished_ || pastEnd()) {
        // A warp past the kernel end retires at its next pick.
        operandReady_ = 0;
        memHorizon_ = 0;
        needsMemPort_ = false;
    } else {
        const Instruction &instr = currentInstr();
        operandReady_ = scoreboard_.operandReadyCycle(instr);
        memHorizon_ = scoreboard_.memoryHorizon(instr);
        needsMemPort_ = isMemory(instr.op) && isGlobalMemory(instr.op);
    }
    if (owner_)
        owner_->lowerBound(wakeCycle());
}

Warp::Warp(Cta *cta, WarpId id, const KernelContext &context,
           std::uint64_t seed)
    : cta_(cta), id_(id), context_(&context),
      loopRemaining_(context.numLoops(), 0),
      memExec_(context.numMemInstrs(), 0),
      lastAddr_(context.numMemInstrs(), 0), rng_(seed)
{
    stack_.push_back({0, 0xffffffffu, context.endPc()});
    refreshReadiness();
}

unsigned
Warp::activeLanes() const
{
    return std::popcount(stack_.back().mask);
}

void
Warp::diverge(Pc taken_pc, std::uint32_t taken_mask, Pc fall_pc,
              Pc reconv_pc)
{
    StackEntry &current = stack_.back();
    const std::uint32_t full_mask = current.mask;
    const std::uint32_t fall_mask = full_mask & ~taken_mask;

    if (taken_mask == 0 || fall_mask == 0)
        FINEREG_PANIC("diverge() without an actual lane split");

    // Current entry becomes the reconvergence continuation.
    current.pc = reconv_pc;

    // Fall-through path below, taken path on top (executes first).
    stack_.push_back({fall_pc, fall_mask, reconv_pc});
    stack_.push_back({taken_pc, taken_mask, reconv_pc});
}

void
Warp::reconvergeIfNeeded()
{
    while (stack_.size() > 1 && stack_.back().pc == stack_.back().reconvPc)
        stack_.pop_back();
}

void
Warp::exitCurrentPath()
{
    if (stack_.size() > 1) {
        stack_.pop_back();
    } else {
        finished_ = true;
    }
}

const Instruction &
Warp::currentInstr() const
{
    return context_->kernel().instrAt(pc());
}

} // namespace finereg
