/**
 * @file
 * CFG well-formedness pass. Re-derives the control-flow graph from the
 * instruction stream alone (terminator opcodes and their targets) without
 * trusting the Kernel's stored successor/predecessor lists, then proves:
 * block extents tile the instruction array, terminators sit only in the
 * last slot, every branch target exists, the final block cannot fall
 * through off the kernel end, an EXIT exists and is reachable from every
 * reachable block, no block is unreachable, operand registers are within
 * the declared allocation, and the stored CFG edges match the derived
 * ones. Later passes consume the derived edges, so they never walk a
 * graph the checker has not vetted.
 */

#ifndef FINEREG_ANALYSIS_CFG_CHECK_HH
#define FINEREG_ANALYSIS_CFG_CHECK_HH

#include <vector>

#include "analysis/pass.hh"

namespace finereg::analysis
{

struct CfgCheckResult : AnalysisResultBase
{
    static constexpr std::string_view kName = "cfg-check";

    /**
     * True when block extents, terminator placement, branch targets and
     * operand registers are all valid — the precondition for running
     * dataflow passes, which index per-register state by operand.
     * Reachability findings do not clear this flag.
     */
    bool structurallySound = true;

    /** Successor lists derived from terminators (valid targets only). */
    std::vector<std::vector<int>> succs;

    /** Predecessor lists derived from succs. */
    std::vector<std::vector<int>> preds;

    /** Per-block reachability from the entry over derived edges. */
    std::vector<char> reachable;

    bool allReachable = true;
    bool hasExit = false;

    /** Every reachable block can reach an EXIT terminator. */
    bool exitReachableEverywhere = true;
};

class CfgCheckPass : public Pass
{
  public:
    std::string_view name() const override { return CfgCheckResult::kName; }
    bool requiresSoundCfg() const override { return false; }
    std::unique_ptr<AnalysisResultBase> run(AnalysisContext &ctx) override;
};

} // namespace finereg::analysis

#endif // FINEREG_ANALYSIS_CFG_CHECK_HH
