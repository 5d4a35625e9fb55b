/**
 * @file
 * Scoreboard tests: RAW/WAW hazards, stall-on-use semantics, and the
 * memory-blocking classification the CTA stall detector relies on. The
 * simulator reads two pure queries per instruction — the operand-ready
 * cycle and the memory horizon — which a warp caches until it issues; the
 * property test pins both to their per-cycle definitions.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sm/scoreboard.hh"

namespace finereg
{
namespace
{

Instruction
aluUsing(int dst, int src0, int src1 = -1)
{
    Instruction instr;
    instr.op = Opcode::FADD;
    instr.dst = dst;
    instr.srcs = {src0, src1, -1};
    return instr;
}

TEST(Scoreboard, FreshBoardIsReady)
{
    Scoreboard sb;
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(0, 1, 2)), 0u);
    EXPECT_EQ(sb.memoryHorizon(aluUsing(0, 1, 2)), 0u);
}

TEST(Scoreboard, RawHazardBlocksUntilReady)
{
    Scoreboard sb;
    sb.recordWrite(3, 100, false);
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(4, 3)), 100u);
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb;
    sb.recordWrite(3, 100, false);
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(3, 1)), 100u);
}

TEST(Scoreboard, IndependentInstructionUnaffected)
{
    Scoreboard sb;
    sb.recordWrite(3, 100, false);
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(5, 6)), 0u);
}

TEST(Scoreboard, MemoryBlockingClassification)
{
    Scoreboard sb;
    sb.recordWrite(2, 500, true);  // global load in flight
    sb.recordWrite(3, 500, false); // ALU in flight
    EXPECT_TRUE(sb.blockedOnMemory(aluUsing(4, 2), 100));
    EXPECT_EQ(sb.memoryHorizon(aluUsing(4, 2)), 500u);
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(4, 3), 100));
    EXPECT_EQ(sb.memoryHorizon(aluUsing(4, 3)), 0u);
    // After the load lands the warp is not memory-blocked.
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(4, 2), 500));
}

TEST(Scoreboard, RedefineClearsMemoryFlag)
{
    Scoreboard sb;
    sb.recordWrite(2, 500, true);
    sb.recordWrite(2, 50, false); // ALU redefines the register sooner
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(4, 2), 100));
    EXPECT_EQ(sb.memoryHorizon(aluUsing(4, 2)), 0u);
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(4, 2)), 50u);
}

TEST(Scoreboard, SettledWritesNeverBlock)
{
    Scoreboard sb;
    sb.recordWrite(1, 10, true);
    // Queries are pure: asking at 20 settles nothing that a later (or
    // earlier) query would see differently.
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(2, 1), 20));
    EXPECT_TRUE(sb.blockedOnMemory(aluUsing(2, 1), 5));
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(2, 1)), 10u);
    EXPECT_EQ(sb.memoryHorizon(aluUsing(2, 1)), 10u);
}

TEST(Scoreboard, LastPendingCycle)
{
    Scoreboard sb;
    EXPECT_EQ(sb.lastPendingCycle(7), 7u);
    sb.recordWrite(1, 100, true);
    sb.recordWrite(2, 300, true);
    EXPECT_EQ(sb.lastPendingCycle(50), 300u);
}

TEST(Scoreboard, ClearResets)
{
    Scoreboard sb;
    sb.recordWrite(1, 1000, true);
    sb.clear();
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(2, 1)), 0u);
    EXPECT_EQ(sb.memoryHorizon(aluUsing(2, 1)), 0u);
    EXPECT_EQ(sb.lastPendingCycle(0), 0u);
}

TEST(Scoreboard, MultipleOperandsTakeLatest)
{
    Scoreboard sb;
    sb.recordWrite(1, 100, false);
    sb.recordWrite(2, 200, false);
    EXPECT_EQ(sb.operandReadyCycle(aluUsing(3, 1, 2)), 200u);
}

TEST(Scoreboard, CachedQueriesMatchPerCycleDefinitionsOnRandomWrites)
{
    // Random write sequences over a few registers, then every instruction
    // shape over them, checked at every cycle of the window.
    constexpr int kRegs = 6;
    constexpr Cycle kHorizon = 64;
    Rng rng(0x5c0ebd);
    for (int trial = 0; trial < 200; ++trial) {
        Scoreboard sb;
        Cycle ready_at[kRegs] = {};
        bool pending[kRegs] = {};
        bool from_mem[kRegs] = {};
        const unsigned writes = rng.below(10);
        for (unsigned w = 0; w < writes; ++w) {
            const auto reg = static_cast<RegIndex>(rng.below(kRegs));
            const Cycle ready = rng.below(kHorizon);
            const bool mem = rng.chance(0.5);
            sb.recordWrite(reg, ready, mem);
            ready_at[reg] = ready;
            pending[reg] = true;
            from_mem[reg] = mem;
        }
        for (int dst = -1; dst < kRegs; ++dst) {
            for (int src = -1; src < kRegs; ++src) {
                const Instruction instr = aluUsing(dst, src);
                const Cycle op_ready = sb.operandReadyCycle(instr);
                const Cycle mem_horizon = sb.memoryHorizon(instr);
                for (Cycle t = 0; t <= kHorizon; ++t) {
                    bool settled = true;
                    bool mem_blocked = false;
                    for (const int reg : {dst, src}) {
                        if (reg < 0 || !pending[reg] || ready_at[reg] <= t)
                            continue;
                        settled = false;
                        mem_blocked = mem_blocked || from_mem[reg];
                    }
                    ASSERT_EQ(op_ready <= t, settled)
                        << "trial " << trial << " dst " << dst << " src "
                        << src << " t " << t;
                    ASSERT_EQ(mem_horizon > t, mem_blocked)
                        << "trial " << trial << " dst " << dst << " src "
                        << src << " t " << t;
                    ASSERT_EQ(sb.blockedOnMemory(instr, t), mem_blocked);
                }
            }
        }
    }
}

} // namespace
} // namespace finereg
