/**
 * @file
 * Warp and CTA tests: SIMT-stack divergence/reconvergence, exit handling,
 * barriers, stall detection, and the warp scheduler policies.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "isa/kernel_builder.hh"
#include "sm/cta.hh"
#include "sm/kernel_context.hh"
#include "sm/warp.hh"
#include "sm/warp_scheduler.hh"

namespace finereg
{
namespace
{

std::unique_ptr<Kernel>
makeSimpleKernel()
{
    KernelBuilder b("warp_test");
    b.regsPerThread(8).threadsPerCta(64);
    b.newBlock();
    b.alu(Opcode::IADD, 0, 1);
    b.alu(Opcode::IADD, 1, 0);
    b.exit();
    return b.finalize();
}

TEST(Warp, StartsAtPcZeroFullMask)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    EXPECT_EQ(warp.pc(), 0u);
    EXPECT_EQ(warp.activeMask(), 0xffffffffu);
    EXPECT_EQ(warp.activeLanes(), 32u);
    EXPECT_FALSE(warp.finished());
}

TEST(Warp, DivergePushesTakenPathFirst)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];

    warp.diverge(/*taken_pc=*/16, /*taken_mask=*/0x0000ffff,
                 /*fall_pc=*/8, /*reconv_pc=*/24);
    EXPECT_EQ(warp.simtStack().size(), 3u);
    EXPECT_EQ(warp.pc(), 16u); // taken path executes first
    EXPECT_EQ(warp.activeLanes(), 16u);
}

TEST(Warp, ReconvergeMergesPaths)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    warp.diverge(16, 0x0000ffff, 8, 24);

    // Taken path reaches the reconvergence PC: pop to the fall path.
    warp.setPc(24);
    warp.reconvergeIfNeeded();
    EXPECT_EQ(warp.simtStack().size(), 2u);
    EXPECT_EQ(warp.pc(), 8u);
    EXPECT_EQ(warp.activeLanes(), 16u);

    // Fall path reaches it too: pop to the merged base entry.
    warp.setPc(24);
    warp.reconvergeIfNeeded();
    EXPECT_EQ(warp.simtStack().size(), 1u);
    EXPECT_EQ(warp.pc(), 24u);
    EXPECT_EQ(warp.activeLanes(), 32u);
}

TEST(Warp, ExitOnDivergedPathPopsOnly)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    warp.diverge(16, 0x1, 8, 24);
    // Stack: [base(reconv), fall, taken]. Exits pop one level at a time;
    // only exiting the base entry finishes the warp.
    warp.exitCurrentPath(); // taken path exits
    EXPECT_FALSE(warp.finished());
    warp.exitCurrentPath(); // fall path exits
    EXPECT_FALSE(warp.finished());
    EXPECT_EQ(warp.simtStack().size(), 1u);
    warp.exitCurrentPath(); // base entry exits
    EXPECT_TRUE(warp.finished());
}

TEST(WarpDeath, DivergeNeedsRealSplit)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_DEATH(cta.warps()[0]->diverge(16, 0, 8, 24), "lane split");
}

TEST(Cta, CreatesWarpsPerKernelShape)
{
    const auto k = makeSimpleKernel(); // 64 threads = 2 warps
    KernelContext ctx(*k);
    Cta cta(3, 1, ctx);
    EXPECT_EQ(cta.numWarps(), 2u);
    EXPECT_EQ(cta.gridId(), 3u);
    EXPECT_EQ(cta.launchSeq(), 1u);
    EXPECT_EQ(cta.state(), CtaState::Active);
}

TEST(Cta, BarrierReleasesWhenAllArrive)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_FALSE(cta.arriveAtBarrier());
    EXPECT_TRUE(cta.arriveAtBarrier()); // both warps arrived
}

TEST(Cta, BarrierIgnoresFinishedWarps)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    cta.noteWarpFinished();
    EXPECT_TRUE(cta.arriveAtBarrier()); // only one live warp
}

TEST(Cta, FullyStalledOnlyWhenAllWarpsMemBlocked)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &w0 = *cta.warps()[0];
    Warp &w1 = *cta.warps()[1];
    EXPECT_EQ(cta.checkFullStall(10).until, 0u);

    // Warp 0 blocked on a global load feeding its current instruction
    // (instr 0 reads R1). The stall check reads the readiness cache, which
    // the warp refreshes after each scoreboard write (at issue).
    w0.scoreboard().recordWrite(1, 1000, true);
    w0.refreshReadiness();
    EXPECT_EQ(cta.checkFullStall(10).until, 0u); // warp 1 still runnable

    w1.scoreboard().recordWrite(1, 800, true);
    w1.refreshReadiness();
    // Stalled until the first warp's operands are back.
    EXPECT_EQ(cta.checkFullStall(10).until, 800u);

    // After one load returns the CTA is no longer fully stalled.
    EXPECT_EQ(cta.checkFullStall(900).until, 0u);
    EXPECT_EQ(cta.checkFullStall(900).recheckAt, kNoCycle);

    // A warp in its issue shadow defers the verdict to the shadow's end.
    w1.setEarliestIssue(20);
    EXPECT_EQ(cta.checkFullStall(10).until, 0u);
    EXPECT_EQ(cta.checkFullStall(10).recheckAt, 20u);
    EXPECT_EQ(cta.checkFullStall(20).until, 800u);
}

TEST(Warp, ReadinessCacheFollowsScoreboardAndBarrier)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    EXPECT_EQ(warp.wakeCycle(), 0u);

    warp.scoreboard().recordWrite(1, 300, true);
    EXPECT_EQ(warp.wakeCycle(), 0u); // unseen until the refresh
    warp.refreshReadiness();
    EXPECT_EQ(warp.operandReadyCycle(), 300u);
    EXPECT_EQ(warp.memoryHorizon(), 300u);
    EXPECT_EQ(warp.wakeCycle(), 300u);

    warp.setEarliestIssue(500);
    EXPECT_EQ(warp.wakeCycle(), 500u);
    warp.setAtBarrier(true);
    EXPECT_EQ(warp.wakeCycle(), kNoCycle);
    warp.setAtBarrier(false);
    EXPECT_EQ(warp.wakeCycle(), 500u);
}

TEST(Cta, EstimateReadyCycleIsMedianWake)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    cta.warps()[0]->scoreboard().recordWrite(1, 400, true);
    cta.warps()[1]->scoreboard().recordWrite(1, 1000, true);
    // With two warps, ready at the first (index (2-1)/2 = 0) wake.
    EXPECT_EQ(cta.estimateReadyCycle(10), 400u);
}

TEST(Cta, ExecutionEpisodeLifecycle)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_EQ(cta.closeExecutionEpisode(100), 0u); // none open
    cta.startExecutionEpisode(100);
    EXPECT_EQ(cta.closeExecutionEpisode(350), 250u);
    EXPECT_EQ(cta.closeExecutionEpisode(400), 0u); // already closed
    cta.startExecutionEpisodeIfClosed(500);
    EXPECT_EQ(cta.closeExecutionEpisode(600), 100u);
}

// ---- WarpScheduler ----------------------------------------------------------

struct SchedulerFixture : public ::testing::Test
{
    SchedulerFixture()
        : kernel(makeSimpleKernel()), ctx(*kernel), old_cta(0, 0, ctx),
          new_cta(1, 1, ctx)
    {
    }

    std::unique_ptr<Kernel> kernel;
    KernelContext ctx;
    Cta old_cta;
    Cta new_cta;
};

TEST_F(SchedulerFixture, GtoSticksWithGreedyWarp)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    Warp *a = old_cta.warps()[0].get();
    Warp *b = old_cta.warps()[1].get();
    sched.addWarp(a);
    sched.addWarp(b);

    Warp *first = sched.pick(0, true);
    ASSERT_NE(first, nullptr);
    // Greedy: the same warp is picked while it remains issuable.
    EXPECT_EQ(sched.pick(0, true), first);
    // When the greedy warp stalls, the scheduler moves on.
    first->setEarliestIssue(10);
    Warp *other = sched.pick(0, true);
    ASSERT_NE(other, nullptr);
    EXPECT_NE(other, first);
}

TEST_F(SchedulerFixture, GtoPrefersOldestCta)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    sched.addWarp(new_cta.warps()[0].get());
    sched.addWarp(old_cta.warps()[0].get());
    Warp *pick = sched.pick(0, true);
    ASSERT_NE(pick, nullptr);
    EXPECT_EQ(pick->cta(), &old_cta); // launchSeq 0 beats 1
}

TEST_F(SchedulerFixture, LrrRotates)
{
    WarpScheduler sched(SchedKind::LRR, 0);
    Warp *a = old_cta.warps()[0].get();
    Warp *b = old_cta.warps()[1].get();
    sched.addWarp(a);
    sched.addWarp(b);
    Warp *first = sched.pick(0, true);
    Warp *second = sched.pick(0, true);
    EXPECT_NE(first, second);
    EXPECT_EQ(sched.pick(0, true), first);
}

TEST_F(SchedulerFixture, RemoveWarpForgetsGreedy)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    Warp *a = old_cta.warps()[0].get();
    sched.addWarp(a);
    EXPECT_EQ(a->owner(), &sched);
    EXPECT_EQ(sched.pick(0, true), a);
    sched.removeWarp(a);
    EXPECT_EQ(a->owner(), nullptr);
    EXPECT_EQ(sched.pick(0, true), nullptr);
}

TEST_F(SchedulerFixture, EmptySchedulerReturnsNull)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    EXPECT_EQ(sched.pick(0, true), nullptr);
    EXPECT_EQ(sched.nextDue(), kNoCycle);
}

TEST_F(SchedulerFixture, NoIssuableWarpReturnsNull)
{
    WarpScheduler sched(SchedKind::LRR, 0);
    Warp *a = old_cta.warps()[0].get();
    sched.addWarp(a);
    a->setEarliestIssue(100);
    EXPECT_EQ(sched.pick(0, true), nullptr);
    // The scan left the exact bound: nothing is due before cycle 100.
    EXPECT_EQ(sched.nextDue(), 100u);
}

/** Issuable at @p now from the warp's own state, not its cache. */
bool
bruteIssuable(const Warp &w, Cycle now, bool mem_port_free)
{
    if (w.finished() || w.atBarrier() || w.earliestIssue() > now)
        return false;
    if (w.pastEnd())
        return true;
    const Instruction &instr = w.currentInstr();
    if (isGlobalMemory(instr.op) && !mem_port_free)
        return false;
    return w.scoreboard().operandReadyCycle(instr) <= now;
}

TEST(WarpScheduler, WakeBoundNeverHidesAnIssuableWarp)
{
    // A load feeding an add: warps at PC 0 need the memory port, warps at
    // PC 8 wait on R2.
    KernelBuilder b("sched_bound");
    b.regsPerThread(8).threadsPerCta(128);
    b.newBlock();
    b.load(Opcode::LD_GLOBAL, 2, 1, MemPattern{});
    b.alu(Opcode::IADD, 0, 2);
    b.exit();
    const auto kernel = b.finalize();
    KernelContext ctx(*kernel);

    for (const SchedKind kind : {SchedKind::GTO, SchedKind::LRR}) {
        Rng rng(kind == SchedKind::GTO ? 11 : 12);
        std::vector<std::unique_ptr<Cta>> ctas;
        for (unsigned c = 0; c < 4; ++c)
            ctas.push_back(std::make_unique<Cta>(c, 3 - c, ctx));
        std::vector<Warp *> warps;
        for (auto &cta : ctas) {
            for (auto &w : cta->warps())
                warps.push_back(w.get());
        }
        WarpScheduler sched(kind, 0);
        for (Warp *w : warps)
            sched.addWarp(w);

        // What the SM does when a warp issues: a new PC, a scoreboard
        // write, a later earliest issue, one refresh.
        auto issue = [&](Warp &w, Cycle now) {
            w.setPc(rng.chance(0.5) ? 0 : kInstrBytes);
            w.scoreboard().recordWrite(static_cast<RegIndex>(rng.below(3)),
                                       now + rng.below(40),
                                       rng.chance(0.5));
            w.setEarliestIssue(now + 1 + rng.below(3));
            w.refreshReadiness();
        };

        for (Cycle now = 0; now < 3000; ++now) {
            Warp &w = *warps[rng.below(warps.size())];
            switch (rng.below(6)) {
              case 0:
                issue(w, now);
                break;
              case 1:
                w.setAtBarrier(!w.atBarrier());
                break;
              case 2:
                // Suspend or resume: scheduler membership changes.
                if (w.owner())
                    sched.removeWarp(&w);
                else
                    sched.addWarp(&w);
                break;
              default:
                break;
            }

            const bool port_free = rng.chance(0.7);
            bool any = false;
            for (const Warp *v : sched.warps()) {
                ASSERT_EQ(v->owner(), &sched);
                ASSERT_LE(sched.nextDue(), v->wakeCycle());
                any = any || bruteIssuable(*v, now, port_free);
            }
            if (sched.nextDue() > now) {
                ASSERT_FALSE(any) << "cycle " << now;
                continue;
            }
            Warp *picked = sched.pick(now, port_free);
            ASSERT_EQ(picked != nullptr, any) << "cycle " << now;
            if (picked) {
                ASSERT_TRUE(bruteIssuable(*picked, now, port_free));
                issue(*picked, now);
            }
        }
    }
}

} // namespace
} // namespace finereg
