/**
 * @file
 * Tests of the benchmark's own code: the forwarding decorator, the stats
 * fingerprint, and agreement between traced and untimed passes. Kernels
 * run at a small grid scale so the whole file takes a few seconds.
 */

#include <gtest/gtest.h>

#include "harness.hh"
#include "core/experiment.hh"
#include "policies/baseline_policy.hh"
#include "workloads/suite.hh"

using namespace perfbench;
using finereg::Cycle;

namespace
{

constexpr double kScale = 0.05;

/** Baseline policy that counts every virtual the Gpu can call. */
class RecordingPolicy : public finereg::BaselinePolicy
{
  public:
    struct Counts
    {
        unsigned bind = 0, name = 0, tick = 0, finished = 0, depletion = 0,
                 next = 0, storage = 0, audit = 0;
    };

    explicit RecordingPolicy(Counts &counts) : counts_(counts) {}

    const char *name() const override
    {
        ++counts_.name;
        return "Recording";
    }
    void tick(finereg::Sm &sm, Cycle now) override
    {
        ++counts_.tick;
        BaselinePolicy::tick(sm, now);
    }
    void onCtaFinished(finereg::Sm &sm, finereg::Cta &cta,
                       Cycle now) override
    {
        ++counts_.finished;
        BaselinePolicy::onCtaFinished(sm, cta, now);
    }
    bool rfDepletionBlocked(const finereg::Sm &sm, Cycle now) const override
    {
        ++counts_.depletion;
        return BaselinePolicy::rfDepletionBlocked(sm, now);
    }
    Cycle nextEventCycle(const finereg::Sm &sm, Cycle now) const override
    {
        ++counts_.next;
        return BaselinePolicy::nextEventCycle(sm, now);
    }
    std::uint64_t storageOverheadBits() const override
    {
        ++counts_.storage;
        return 4242;
    }
    void audit(const finereg::Sm &sm, Cycle now) const override
    {
        ++counts_.audit;
        BaselinePolicy::audit(sm, now);
    }

  protected:
    void onBind() override
    {
        ++counts_.bind;
        BaselinePolicy::onBind();
    }

  private:
    Counts &counts_;
};

Workload
smallWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    EXPECT_TRUE(makeWorkload(name, seed, w, {0, 10})); // AT and MC.
    return w;
}

} // namespace

TEST(TracingPolicy, ForwardsEveryPolicyVirtual)
{
    const KernelSet kernels = buildKernels(kScale);
    finereg::GpuConfig config =
        finereg::Experiment::configFor(finereg::PolicyKind::Baseline);
    config.verify.auditInterval = 64; // So the auditor calls audit().

    RecordingPolicy::Counts counts;
    CellStats stats;
    PolicyCallTotals totals;
    const finereg::SimResult result = finereg::Simulator::run(
        config, *kernels[10],
        std::make_unique<TracingPolicy>(
            std::make_unique<RecordingPolicy>(counts), stats, &totals));

    ASSERT_FALSE(result.failed) << result.failureReason;
    EXPECT_EQ(result.policyName, "Recording");
    EXPECT_EQ(result.policyStorageBits, 4242u);
    EXPECT_EQ(counts.bind, 1u);
    EXPECT_GT(counts.name, 0u);
    EXPECT_GT(counts.storage, 0u);
    EXPECT_GT(counts.audit, 0u);
    EXPECT_EQ(counts.finished, kernels[10]->gridCtas());

    // Every timed call reached the inner policy exactly once.
    EXPECT_EQ(totals.calls[static_cast<int>(PolicyCall::Tick)], counts.tick);
    EXPECT_EQ(totals.calls[static_cast<int>(PolicyCall::NextEvent)],
              counts.next);
    EXPECT_EQ(totals.calls[static_cast<int>(PolicyCall::DepletionCheck)],
              counts.depletion);
    EXPECT_EQ(totals.calls[static_cast<int>(PolicyCall::CtaFinished)],
              counts.finished);
    EXPECT_GT(counts.tick, 0u);
    EXPECT_GT(counts.next, 0u);
    EXPECT_GT(counts.depletion, 0u);

    // The Gpu's stat group was captured at teardown.
    ASSERT_TRUE(stats.captured);
    EXPECT_EQ(stats.counter("gpu.cycles"), result.cycles);
    EXPECT_NE(stats.dump.find("sm.issued"), std::string::npos);
}

TEST(TracingPolicy, UntimedDecoratorOnlyForwards)
{
    const KernelSet kernels = buildKernels(kScale);
    const finereg::GpuConfig config =
        finereg::Experiment::configFor(finereg::PolicyKind::FineReg);
    CellStats stats;
    const finereg::SimResult wrapped = finereg::Simulator::run(
        config, *kernels[0],
        std::make_unique<TracingPolicy>(finereg::makePolicy(config), stats,
                                        nullptr));
    const finereg::SimResult bare =
        finereg::Simulator::run(config, *kernels[0]);
    EXPECT_EQ(wrapped.cycles, bare.cycles);
    EXPECT_EQ(wrapped.instructions, bare.instructions);
    EXPECT_EQ(wrapped.policyName, bare.policyName);
    EXPECT_EQ(wrapped.policyStorageBits, bare.policyStorageBits);
    EXPECT_EQ(wrapped.energy.total(), bare.energy.total());
}

TEST(Fingerprint, StableForOneSeed)
{
    const KernelSet kernels = buildKernels(kScale);
    const Workload w = smallWorkload("switching-suite", 7);
    const PassResult a = runPass(w, kernels);
    const PassResult b = runPass(w, kernels);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);

    const PassResult other = runPass(smallWorkload("switching-suite", 8),
                                     kernels);
    EXPECT_NE(other.fingerprint, a.fingerprint);
}

TEST(Fingerprint, IgnoresHostCountersOnly)
{
    auto hash_of = [](const std::string &dump) {
        CellResult cell;
        cell.stats.dump = dump;
        return cellFingerprint(cell, fnv1a({}));
    };
    const std::uint64_t base =
        hash_of("gpu.gpu.loop_iterations 5\ngpu.sm.issued 9\n");
    EXPECT_EQ(base, hash_of("gpu.gpu.loop_iterations 6\ngpu.sm.issued 9\n"));
    EXPECT_NE(base, hash_of("gpu.gpu.loop_iterations 5\ngpu.sm.issued 8\n"));
    EXPECT_TRUE(isHostCounter("gpu.wheel_pushes"));
    EXPECT_FALSE(isHostCounter("rmu.gathers"));

    CellResult cell;
    const std::uint64_t no_energy = cellFingerprint(cell, fnv1a({}));
    cell.sim.energy.rfDyn = 1.0;
    EXPECT_NE(no_energy, cellFingerprint(cell, fnv1a({})));
}

TEST(Passes, TracedAndUntimedAgree)
{
    const KernelSet kernels = buildKernels(kScale);
    for (const std::string &name : workloadNames()) {
        Workload w;
        ASSERT_TRUE(makeWorkload(name, 3, w, {0, 10}));
        const PassResult untimed = runPass(w, kernels);
        SpanRecorder spans;
        const PassResult traced = runPass(w, kernels, &spans);

        EXPECT_EQ(traced.fingerprint, untimed.fingerprint) << name;
        EXPECT_EQ(traced.cycles, untimed.cycles) << name;
        EXPECT_EQ(traced.instructions, untimed.instructions) << name;

        // One pass span, and a Cell + SimRun span per cell, each SimRun
        // nested in its cell and carrying folded policy-call spans.
        ASSERT_EQ(spans.spans().size(), 1 + 2 * w.cells.size()) << name;
        EXPECT_EQ(spans.spans()[0].kind, Span::Kind::Pass);
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            const Span &cell = spans.spans()[1 + 2 * i];
            const Span &run = spans.spans()[2 + 2 * i];
            EXPECT_EQ(cell.kind, Span::Kind::Cell);
            EXPECT_EQ(run.kind, Span::Kind::SimRun);
            EXPECT_EQ(run.parent, cell.id);
            EXPECT_EQ(run.cell, i + 1);
            EXPECT_GE(spans.selfSeconds(run.id), 0.0);
            EXPECT_GE(spans.selfSeconds(cell.id), 0.0);
            const PolicyCallTotals &calls = spans.callTotals().at(i + 1);
            EXPECT_GT(calls.totalCalls(), 0u);
            EXPECT_LE(calls.totalSeconds(), run.seconds());
        }
        EXPECT_NE(spans.toJson().find("\"policy_calls\""),
                  std::string::npos);
    }
}

TEST(Workloads, CellsMatchTheirDefinitions)
{
    Workload w;
    ASSERT_TRUE(makeWorkload("finereg-pcrf-starved", 11, w));
    ASSERT_EQ(w.cells.size(), finereg::Suite::all().size());
    for (const Cell &cell : w.cells) {
        EXPECT_EQ(cell.config.policy.kind, finereg::PolicyKind::FineReg);
        EXPECT_EQ(cell.config.policy.acrfBytes, 224u * 1024);
        EXPECT_EQ(cell.config.policy.pcrfBytes, 32u * 1024);
        EXPECT_EQ(cell.config.seed, 11u);
    }
    EXPECT_FALSE(w.defaultSplit);
    ASSERT_TRUE(makeWorkload("switching-suite", 11, w));
    EXPECT_EQ(w.cells.size(), 4 * finereg::Suite::all().size());
    EXPECT_TRUE(w.defaultSplit);
    EXPECT_FALSE(makeWorkload("no-such-workload", 11, w));
}
