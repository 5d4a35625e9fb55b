/**
 * @file
 * Tests for the static analysis subsystem: the pass manager's caching and
 * skip-gating, CFG well-formedness detection over seeded defects, the
 * dominator/post-dominator trees (cross-checked against the compiler's
 * CfgAnalysis), use-before-def dataflow, the liveness cross-validator
 * (soundness, exactness, and rejection of corrupted bit vectors via the
 * LintOptions hooks), shared-memory checks, and diagnostics rendering.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <tuple>

#include "analysis/cfg_check.hh"
#include "analysis/dominators.hh"
#include "analysis/kernel_mutator.hh"
#include "analysis/lint.hh"
#include "analysis/liveness_check.hh"
#include "analysis/reaching_defs.hh"
#include "analysis/reconv_check.hh"
#include "analysis/shared_mem_check.hh"
#include "analysis/value_range.hh"
#include "compiler/cfg_analysis.hh"
#include "isa/kernel_builder.hh"
#include "ref/kernel_gen.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

using analysis::AnalysisManager;
using analysis::DefectKind;
using analysis::DiagKind;
using analysis::Severity;

/** B0: branch -> {B1, B2}; B1 jumps to the join; B3 joins and exits. */
std::unique_ptr<Kernel>
makeDiamondKernel()
{
    KernelBuilder b("diamond");
    b.regsPerThread(8);
    b.newBlock();                 // B0
    b.branch(2, 0, 0.5, 0.0);     // reads R0
    b.newBlock();                 // B1: else — defines R5
    b.alu(Opcode::IADD, 5, 1, 1);
    b.jump(3);
    b.newBlock();                 // B2: then — does not define R5
    b.alu(Opcode::IADD, 6, 1, 1);
    b.newBlock();                 // B3: join — uses R5
    b.alu(Opcode::IADD, 7, 5, 0);
    b.exit();
    return b.finalize();
}

std::unique_ptr<Kernel>
makeStraightKernel()
{
    KernelBuilder b("straight");
    b.regsPerThread(8);
    b.newBlock();
    b.alu(Opcode::IADD, 1, 0, 0);
    b.alu(Opcode::IMUL, 2, 1, 1);
    b.alu(Opcode::FADD, 3, 2, 2);
    b.exit();
    return b.finalize();
}

// --- Pass manager ---------------------------------------------------------

struct CountingResult : analysis::AnalysisResultBase
{
    unsigned sequence = 0;
};

/** Test pass that records how many times the manager actually ran it. */
class CountingPass : public analysis::Pass
{
  public:
    explicit CountingPass(unsigned &runs) : runs_(runs) {}
    std::string_view name() const override { return "counting"; }
    std::unique_ptr<analysis::AnalysisResultBase>
    run(analysis::AnalysisContext &) override
    {
        auto result = std::make_unique<CountingResult>();
        result->sequence = ++runs_;
        return result;
    }

  private:
    unsigned &runs_;
};

TEST(AnalysisManager, RunsEachPassAtMostOncePerKernel)
{
    const auto kernel = makeStraightKernel();
    unsigned runs = 0;
    auto manager = AnalysisManager::withDefaultPasses();
    manager->registerPass(std::make_unique<CountingPass>(runs));
    const auto &first = manager->ensure(*kernel, "counting");
    const auto &second = manager->ensure(*kernel, "counting");
    EXPECT_EQ(&first, &second); // same cache node, not a recompute
    EXPECT_NE(first.result.get(), nullptr);
    EXPECT_EQ(runs, 1u);

    // A different kernel gets its own run.
    const auto other = makeDiamondKernel();
    manager->ensure(*other, "counting");
    EXPECT_EQ(runs, 2u);
}

TEST(AnalysisManager, InvalidateDropsCachedOutcomes)
{
    const auto kernel = makeStraightKernel();
    unsigned runs = 0;
    auto manager = AnalysisManager::withDefaultPasses();
    manager->registerPass(std::make_unique<CountingPass>(runs));
    manager->ensure(*kernel, "counting");
    EXPECT_EQ(runs, 1u);
    manager->invalidate(*kernel);
    const auto *recomputed =
        manager->resultOf<CountingResult>(*kernel, "counting");
    ASSERT_NE(recomputed, nullptr);
    EXPECT_EQ(runs, 2u);
    EXPECT_EQ(recomputed->sequence, 2u);
}

TEST(AnalysisManager, EnsureRunsDependenciesTransitively)
{
    const auto kernel = makeDiamondKernel();
    auto manager = AnalysisManager::withDefaultPasses();
    // Asking only for the reconvergence check must pull in cfg-check and
    // postdomtree; afterwards they are cached (same node on re-request).
    const auto &reconv =
        manager->ensure(*kernel, analysis::ReconvCheckResult::kName);
    EXPECT_FALSE(reconv.skipped);
    const auto *cfg = manager->resultOf<analysis::CfgCheckResult>(
        *kernel, analysis::CfgCheckResult::kName);
    ASSERT_NE(cfg, nullptr);
    EXPECT_TRUE(cfg->structurallySound);
}

TEST(AnalysisManager, DataflowSkippedOnStructurallyUnsoundCfg)
{
    const auto clean = makeDiamondKernel();
    const auto defect = analysis::KernelMutator::seedDefect(
        *clean, DefectKind::ShrunkBlock, 1);
    ASSERT_TRUE(defect.has_value());

    auto manager = AnalysisManager::withDefaultPasses(defect->options);
    const auto *cfg = manager->resultOf<analysis::CfgCheckResult>(
        *defect->kernel, analysis::CfgCheckResult::kName);
    ASSERT_NE(cfg, nullptr);
    EXPECT_FALSE(cfg->structurallySound);

    // Every dataflow pass must be gated off rather than walking the
    // corrupt graph.
    const auto &live =
        manager->ensure(*defect->kernel, analysis::LivenessCheckResult::kName);
    EXPECT_TRUE(live.skipped);
    EXPECT_EQ(live.result.get(), nullptr);
    EXPECT_EQ(manager->resultOf<analysis::ReachingDefsResult>(
                  *defect->kernel, analysis::ReachingDefsResult::kName),
              nullptr);
}

TEST(AnalysisManager, DataflowSkippedOnOutOfRangeRegister)
{
    // Value-range and the other dataflow passes index per-register state
    // by operand, so a register past regsPerThread must gate them off.
    const auto clean = makeDiamondKernel();
    const auto defect = analysis::KernelMutator::seedDefect(
        *clean, DefectKind::RegisterOutOfRange, 1);
    ASSERT_TRUE(defect.has_value());

    auto manager = AnalysisManager::withDefaultPasses(defect->options);
    const auto *cfg = manager->resultOf<analysis::CfgCheckResult>(
        *defect->kernel, analysis::CfgCheckResult::kName);
    ASSERT_NE(cfg, nullptr);
    EXPECT_FALSE(cfg->structurallySound);
    EXPECT_TRUE(
        manager->ensure(*defect->kernel, analysis::ValueRangeResult::kName)
            .skipped);
}

// --- CFG well-formedness --------------------------------------------------

TEST(CfgCheck, CleanKernelsAreSoundWithDerivedEdgesMatchingStored)
{
    for (const auto &app : Suite::all()) {
        const auto kernel = Suite::makeKernel(app);
        auto manager = AnalysisManager::withDefaultPasses();
        const auto *cfg = manager->resultOf<analysis::CfgCheckResult>(
            *kernel, analysis::CfgCheckResult::kName);
        ASSERT_NE(cfg, nullptr) << app.abbrev;
        EXPECT_TRUE(cfg->structurallySound) << app.abbrev;
        EXPECT_TRUE(cfg->allReachable) << app.abbrev;
        EXPECT_TRUE(cfg->hasExit) << app.abbrev;
        EXPECT_TRUE(cfg->exitReachableEverywhere) << app.abbrev;
        ASSERT_EQ(cfg->succs.size(), kernel->blocks().size());
        for (std::size_t blk = 0; blk < cfg->succs.size(); ++blk) {
            std::vector<int> stored = kernel->blocks()[blk].succs;
            std::vector<int> derived = cfg->succs[blk];
            std::sort(stored.begin(), stored.end());
            std::sort(derived.begin(), derived.end());
            EXPECT_EQ(stored, derived) << app.abbrev << " B" << blk;
        }
    }
}

struct CfgDefectCase
{
    DefectKind defect;
    DiagKind expected;
};

class CfgDefects : public ::testing::TestWithParam<CfgDefectCase>
{
};

TEST_P(CfgDefects, SeededDefectIsFlagged)
{
    const auto clean = makeDiamondKernel();
    const auto &param = GetParam();
    // Some defects need a specific site; scan a few seeds for one.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto defect =
            analysis::KernelMutator::seedDefect(*clean, param.defect, seed);
        if (!defect)
            continue;
        const auto result =
            analysis::lintKernel(*defect->kernel, defect->options);
        EXPECT_TRUE(result.diags.has(param.expected))
            << defectKindName(param.defect) << ": " << defect->detail
            << "\n" << result.diags.renderText(16);
        return;
    }
    FAIL() << "no seed yielded a site for "
           << defectKindName(param.defect);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CfgDefects,
    ::testing::Values(
        CfgDefectCase{DefectKind::DanglingBranch,
                      DiagKind::BranchTargetOutOfRange},
        CfgDefectCase{DefectKind::MidBlockTerminator,
                      DiagKind::TerminatorMidBlock},
        CfgDefectCase{DefectKind::NoExit, DiagKind::NoExit},
        CfgDefectCase{DefectKind::UnreachableBlock,
                      DiagKind::UnreachableBlock},
        CfgDefectCase{DefectKind::SelfLoopTrap, DiagKind::NoPathToExit},
        CfgDefectCase{DefectKind::RegisterOutOfRange,
                      DiagKind::RegisterOutOfRange},
        CfgDefectCase{DefectKind::PhantomEdge,
                      DiagKind::CfgEdgesInconsistent},
        CfgDefectCase{DefectKind::ShrunkBlock,
                      DiagKind::BlockExtentCorrupt}));

// --- Dominators -----------------------------------------------------------

TEST(Dominators, DiamondTreeShape)
{
    const auto kernel = makeDiamondKernel();
    auto manager = AnalysisManager::withDefaultPasses();
    const auto *dom = manager->resultOf<analysis::DomTreeResult>(
        *kernel, analysis::DomTreeResult::kName);
    ASSERT_NE(dom, nullptr);
    EXPECT_EQ(dom->idom[0], 0); // entry
    EXPECT_EQ(dom->idom[1], 0);
    EXPECT_EQ(dom->idom[2], 0);
    EXPECT_EQ(dom->idom[3], 0); // join is dominated by the branch only
    EXPECT_TRUE(dom->dominates(0, 3));
    EXPECT_TRUE(dom->dominates(3, 3)); // reflexive
    EXPECT_FALSE(dom->dominates(1, 3));
    EXPECT_FALSE(dom->dominates(2, 1));

    const auto *pdom = manager->resultOf<analysis::PostDomTreeResult>(
        *kernel, analysis::PostDomTreeResult::kName);
    ASSERT_NE(pdom, nullptr);
    EXPECT_EQ(pdom->ipdom[0], 3);
    EXPECT_EQ(pdom->ipdom[1], 3);
    EXPECT_EQ(pdom->ipdom[2], 3);
    EXPECT_EQ(pdom->ipdom[3], analysis::PostDomTreeResult::kVirtualExit);
}

TEST(Dominators, PostDomsMatchCompilerCfgAnalysisOnSuite)
{
    for (const auto &app : Suite::all()) {
        const auto kernel = Suite::makeKernel(app);
        auto manager = AnalysisManager::withDefaultPasses();
        const auto *pdom = manager->resultOf<analysis::PostDomTreeResult>(
            *kernel, analysis::PostDomTreeResult::kName);
        ASSERT_NE(pdom, nullptr) << app.abbrev;
        CfgAnalysis cfg(*kernel);
        for (std::size_t blk = 0; blk < kernel->blocks().size(); ++blk) {
            const int ours =
                pdom->ipdom[blk] == analysis::PostDomTreeResult::kVirtualExit
                    ? -1
                    : pdom->ipdom[blk];
            EXPECT_EQ(ours, cfg.ipdom(static_cast<int>(blk)))
                << app.abbrev << " B" << blk;
        }

        const auto *reconv = manager->resultOf<analysis::ReconvCheckResult>(
            *kernel, analysis::ReconvCheckResult::kName);
        ASSERT_NE(reconv, nullptr) << app.abbrev;
        EXPECT_TRUE(reconv->compared) << app.abbrev;
        EXPECT_EQ(reconv->mismatches, 0u) << app.abbrev;
    }
}

// --- Reaching definitions -------------------------------------------------

TEST(ReachingDefs, DiamondPartialDefIsUseBeforeDef)
{
    const auto kernel = makeDiamondKernel();
    auto manager = AnalysisManager::withDefaultPasses();
    const auto &outcome =
        manager->ensure(*kernel, analysis::ReachingDefsResult::kName);
    ASSERT_FALSE(outcome.skipped);
    const auto *defs =
        dynamic_cast<const analysis::ReachingDefsResult *>(
            outcome.result.get());
    ASSERT_NE(defs, nullptr);

    // R5 is defined only on the else path, so its join-block use is a
    // maybe-undef read; R0/R1 are never defined at all.
    EXPECT_TRUE(defs->everDefined.test(5));
    EXPECT_FALSE(defs->everDefined.test(0));
    EXPECT_TRUE(defs->maybeUndefIn[3].test(5));
    EXPECT_FALSE(defs->definiteUndefIn[3].test(5));
    EXPECT_GE(defs->useBeforeDefCount, 1u);
    EXPECT_GE(defs->useNeverDefinedCount, 1u);
    EXPECT_TRUE(outcome.diags.has(DiagKind::UseBeforeDef));
    EXPECT_TRUE(outcome.diags.has(DiagKind::UseNeverDefined));
    // Legal-but-suspicious: warnings, never errors (the runtime
    // initializes register files at CTA launch).
    EXPECT_EQ(outcome.diags.errors(), 0u);
}

TEST(ReachingDefs, FullyDefinedChainIsQuiet)
{
    KernelBuilder b("defined");
    b.regsPerThread(4);
    b.newBlock();
    b.alu(Opcode::MOV, 0, 0); // seeds R0 (reads launch-initialized R0)
    b.alu(Opcode::IADD, 1, 0, 0);
    b.alu(Opcode::IADD, 2, 1, 0);
    b.exit();
    const auto kernel = b.finalize();
    auto manager = AnalysisManager::withDefaultPasses();
    const auto &outcome =
        manager->ensure(*kernel, analysis::ReachingDefsResult::kName);
    // Only the launch-value MOV seed reads an undefined register.
    EXPECT_FALSE(outcome.diags.has(DiagKind::UseNeverDefined));
}

// --- Liveness cross-validation --------------------------------------------

TEST(LivenessCheck, SuiteVectorsAreSoundAndExact)
{
    auto manager = AnalysisManager::withDefaultPasses();
    std::vector<std::unique_ptr<Kernel>> keep_alive;
    for (const auto &app : Suite::all()) {
        keep_alive.push_back(Suite::makeKernel(app));
        const Kernel &kernel = *keep_alive.back();
        const auto *live = manager->resultOf<analysis::LivenessCheckResult>(
            kernel, analysis::LivenessCheckResult::kName);
        ASSERT_NE(live, nullptr) << app.abbrev;
        EXPECT_EQ(live->unsoundCount, 0u) << app.abbrev;
        EXPECT_TRUE(live->exactMatch) << app.abbrev;
        EXPECT_FALSE(live->overApprox) << app.abbrev;
        EXPECT_GT(live->maxLive, 0u) << app.abbrev;
        EXPECT_GT(live->liveRatio, 0.0) << app.abbrev;
        EXPECT_LE(live->liveRatio, 1.0) << app.abbrev;
    }
}

TEST(LivenessCheck, DroppedRegisterIsRejectedAsUnsound)
{
    // Mirrors RmuConfig::dropLiveReg: R0 is genuinely live at the entry of
    // the straight kernel, so removing it from the compiler vectors must
    // be flagged as an error — the RMU would skip saving a needed value.
    const auto kernel = makeStraightKernel();
    analysis::LintOptions options;
    options.dropLiveReg = 0;
    auto manager = AnalysisManager::withDefaultPasses(options);
    const auto &outcome =
        manager->ensure(*kernel, analysis::LivenessCheckResult::kName);
    ASSERT_FALSE(outcome.skipped);
    const auto *live = dynamic_cast<const analysis::LivenessCheckResult *>(
        outcome.result.get());
    ASSERT_NE(live, nullptr);
    EXPECT_GE(live->unsoundCount, 1u);
    EXPECT_FALSE(live->exactMatch);
    EXPECT_TRUE(outcome.diags.has(DiagKind::LivenessUnsound));
    EXPECT_GE(outcome.diags.errors(), 1u);
}

TEST(LivenessCheck, FullMaskIsSoundButOverApproximate)
{
    const auto kernel = makeStraightKernel();
    analysis::LintOptions options;
    options.fullLiveMask = true;
    auto manager = AnalysisManager::withDefaultPasses(options);
    const auto &outcome =
        manager->ensure(*kernel, analysis::LivenessCheckResult::kName);
    const auto *live = dynamic_cast<const analysis::LivenessCheckResult *>(
        outcome.result.get());
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->unsoundCount, 0u); // superset: still sound
    EXPECT_TRUE(live->overApprox);
    EXPECT_TRUE(outcome.diags.has(DiagKind::LivenessOverApprox));
    EXPECT_EQ(outcome.diags.errors(), 0u); // warning, not error
}

TEST(LivenessCheck, ColdRegistersReportedAsDeadDefs)
{
    KernelBuilder b("cold");
    b.regsPerThread(8);
    b.newBlock();
    b.alu(Opcode::MOV, 0, 0);
    b.alu(Opcode::IADD, 6, 0, 0); // written, never read
    b.alu(Opcode::IADD, 1, 0, 0);
    b.alu(Opcode::IADD, 2, 1, 0);
    b.exit();
    const auto kernel = b.finalize();
    auto manager = AnalysisManager::withDefaultPasses();
    const auto &outcome =
        manager->ensure(*kernel, analysis::LivenessCheckResult::kName);
    const auto *live = dynamic_cast<const analysis::LivenessCheckResult *>(
        outcome.result.get());
    ASSERT_NE(live, nullptr);
    EXPECT_GE(live->deadDefCount, 1u);
    const auto *diag = outcome.diags.find(DiagKind::DeadDef);
    ASSERT_NE(diag, nullptr);
    EXPECT_EQ(diag->severity, Severity::Note);
}

// --- Shared memory --------------------------------------------------------

TEST(SharedMemCheck, ExecutorAddressModelIsConflictFree)
{
    // The executor maps lane L of a shared op to word (base/4 + L) mod
    // (region/4) with region always a multiple of 128 bytes, so all 32
    // lanes land in distinct banks; the pass must *prove* that (degree 1)
    // rather than report a phantom conflict.
    KernelBuilder b("shared");
    b.regsPerThread(8);
    b.threadsPerCta(64);
    b.shmemPerCta(4096);
    b.newBlock();
    b.alu(Opcode::MOV, 0, 0);
    MemPattern pattern;
    pattern.shared = true;
    pattern.footprint = 4096;
    pattern.transactions = 1;
    b.load(Opcode::LD_SHARED, 1, 0, pattern);
    b.store(Opcode::ST_SHARED, 0, 1, pattern);
    b.exit();
    const auto kernel = b.finalize();
    auto manager = AnalysisManager::withDefaultPasses();
    const auto *shared = manager->resultOf<analysis::SharedMemCheckResult>(
        *kernel, analysis::SharedMemCheckResult::kName);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->sharedOps, 2u);
    EXPECT_EQ(shared->maxBankConflictDegree, 1u);
    EXPECT_EQ(shared->footprintViolations, 0u);
    EXPECT_EQ(shared->opsWithoutShmem, 0u);
}

TEST(SharedMemCheck, SharedOpWithoutShmemWarns)
{
    KernelBuilder b("noshmem");
    b.regsPerThread(8);
    b.newBlock();
    b.alu(Opcode::MOV, 0, 0);
    MemPattern pattern;
    pattern.shared = true;
    pattern.footprint = 1024;
    b.load(Opcode::LD_SHARED, 1, 0, pattern);
    b.exit();
    const auto kernel = b.finalize();
    const auto result = analysis::lintKernel(*kernel);
    EXPECT_TRUE(result.diags.has(DiagKind::SharedOpWithoutShmem));
    EXPECT_EQ(result.diags.errors(), 0u); // executor tolerates it: warning
}

// --- Defect seeding end-to-end (library-level self-check) ------------------

using DiagKey = std::tuple<DiagKind, int, int, int>;

std::set<DiagKey>
diagKeys(const analysis::DiagnosticSet &diags)
{
    std::set<DiagKey> keys;
    for (const auto &diag : diags.all())
        keys.emplace(diag.kind, diag.block, diag.instr, diag.reg);
    return keys;
}

TEST(SelfCheck, EveryDefectKindProducesANewExpectedDiagnostic)
{
    GenOptions gen;
    gen.observeAllRegs = true;
    gen.emitBarriers = true; // barrier-removal defect needs BARs to remove
    for (const DefectKind kind : analysis::allDefectKinds()) {
        bool detected = false;
        for (std::uint64_t seed = 1; seed <= 24 && !detected; ++seed) {
            const auto clean = generateKernelSpec(seed, gen).build();
            const auto defect =
                analysis::KernelMutator::seedDefect(*clean, kind, seed);
            if (!defect)
                continue;
            // Baseline under *default* options: bit-vector corruption
            // defects live in the candidate's options, and applying them
            // to the clean kernel would plant the same finding there.
            const auto clean_lint = analysis::lintKernel(*clean);
            if (clean_lint.diags.hasErrors())
                continue; // generator bug, not this defect's concern
            const auto mutant_lint =
                analysis::lintKernel(*defect->kernel, defect->options);
            const auto before = diagKeys(clean_lint.diags);
            for (const auto &diag : mutant_lint.diags.all()) {
                for (const DiagKind expected : defect->expected) {
                    detected = detected ||
                               (diag.kind == expected &&
                                before.count({diag.kind, diag.block,
                                              diag.instr, diag.reg}) == 0);
                }
            }
        }
        EXPECT_TRUE(detected)
            << "defect " << defectKindName(kind)
            << " escaped the analysis pipeline";
    }
}

// --- Lint facade and diagnostics ------------------------------------------

TEST(Lint, SuiteKernelsLintCleanWithPopulatedStats)
{
    auto manager = AnalysisManager::withDefaultPasses();
    std::vector<std::unique_ptr<Kernel>> keep_alive;
    for (const auto &app : Suite::all()) {
        keep_alive.push_back(Suite::makeKernel(app));
        const Kernel &kernel = *keep_alive.back();
        const auto result = analysis::lintKernel(*manager, kernel);
        EXPECT_TRUE(result.clean())
            << app.abbrev << "\n" << result.diags.renderText(16);
        EXPECT_EQ(result.stats.staticInstrs, kernel.staticInstrs());
        EXPECT_EQ(result.stats.numBlocks, kernel.blocks().size());
        EXPECT_GT(result.stats.maxLive, 0u);
        EXPECT_GT(result.stats.liveRatio, 0.0);
    }
}

TEST(Diagnostics, DefaultSeveritiesFollowThePolicy)
{
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::BlockExtentCorrupt),
              Severity::Error);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::LivenessUnsound),
              Severity::Error);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::ReconvergenceMismatch),
              Severity::Error);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::UseBeforeDef),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::LivenessOverApprox),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::SharedBankConflict),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::DeadDef), Severity::Note);

    // Abstract-interpretation kinds: every diagnostic a clean kernel can
    // draw is advisory (assertLintClean fatals on errors, and the suite
    // and generator route every kernel through it); the Error kinds are
    // reserved for dynamic soundness proofs from the cross-validator.
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::ValueOverflow),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::ConstantFoldableDef),
              Severity::Note);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::LoopBudgetExceeded),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::SharedStrideAliasesWarps),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::SharedMemRace),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::CompressionClaimTooNarrow),
              Severity::Warning);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::CompressionWidthUnsound),
              Severity::Error);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::ValueRangeUnsound),
              Severity::Error);
    EXPECT_EQ(analysis::defaultSeverity(DiagKind::AddressBoundUnsound),
              Severity::Error);
}

TEST(Diagnostics, RenderTextPutsErrorsFirstAndElides)
{
    analysis::DiagnosticSet diags;
    diags.add(DiagKind::DeadDef, "k", 0, 1, 6, "cold register");
    diags.add(DiagKind::UseBeforeDef, "k", 0, 0, 2, "maybe-undef read");
    diags.add(DiagKind::BlockExtentCorrupt, "k", 1, -1, -1, "gap after B0");
    const std::string text = diags.renderText();
    const auto error_at = text.find("error");
    const auto warning_at = text.find("warning");
    const auto note_at = text.find("note");
    ASSERT_NE(error_at, std::string::npos);
    ASSERT_NE(warning_at, std::string::npos);
    ASSERT_NE(note_at, std::string::npos);
    EXPECT_LT(error_at, warning_at);
    EXPECT_LT(warning_at, note_at);

    // A capped rendering keeps the error and reports the elision.
    const std::string capped = diags.renderText(1);
    EXPECT_NE(capped.find("error"), std::string::npos);
    EXPECT_EQ(capped.find("note"), std::string::npos);
    EXPECT_LT(capped.size(), text.size());
}

TEST(Diagnostics, RenderJsonEmitsOneRecordPerDiagnostic)
{
    analysis::DiagnosticSet diags;
    diags.add(DiagKind::UseBeforeDef, "k", 0, 3, 2, "maybe-undef read");
    diags.add(DiagKind::NoExit, "k", -1, -1, -1, "no EXIT anywhere");
    std::ostringstream os;
    diags.renderJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"use-before-def\""), std::string::npos);
    EXPECT_NE(json.find("\"no-exit\""), std::string::npos);
    EXPECT_NE(json.find("\"warning\""), std::string::npos);
    EXPECT_NE(json.find("\"error\""), std::string::npos);
}

} // namespace
} // namespace finereg
