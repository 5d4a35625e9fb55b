#include "analysis/cfg_check.hh"

#include <algorithm>
#include <sstream>

namespace finereg::analysis
{

namespace
{

bool
isTerminatorOp(Opcode op)
{
    return op == Opcode::BRA || op == Opcode::JMP || op == Opcode::EXIT;
}

std::string
str(auto &&...parts)
{
    std::ostringstream oss;
    (oss << ... << parts);
    return oss.str();
}

} // namespace

std::unique_ptr<AnalysisResultBase>
CfgCheckPass::run(AnalysisContext &ctx)
{
    const Kernel &kernel = ctx.kernel;
    const auto &instrs = kernel.instrs();
    const auto &blocks = kernel.blocks();
    const int n_blocks = static_cast<int>(blocks.size());
    const std::string &name = kernel.name();

    auto result = std::make_unique<CfgCheckResult>();
    result->succs.resize(n_blocks);
    result->preds.resize(n_blocks);
    result->reachable.assign(std::max(n_blocks, 1), 0);

    unsigned emitted = 0;
    auto report = [&](DiagKind kind, int block, int instr, int reg,
                      std::string message) {
        if (emitted++ < ctx.options.maxDiagsPerPass)
            ctx.diags.add(kind, name, block, instr, reg, std::move(message));
    };

    if (n_blocks == 0) {
        result->structurallySound = false;
        report(DiagKind::EmptyBlock, -1, -1, -1, "kernel has no blocks");
        return result;
    }

    // ---- Block extents must tile the instruction array -------------------
    unsigned expected_first = 0;
    for (int b = 0; b < n_blocks; ++b) {
        const BasicBlock &blk = blocks[b];
        if (blk.numInstrs == 0) {
            result->structurallySound = false;
            report(DiagKind::EmptyBlock, b, -1, -1,
                   "block spans zero instructions");
            continue;
        }
        if (blk.firstInstr != expected_first ||
            blk.firstInstr + blk.numInstrs > instrs.size()) {
            result->structurallySound = false;
            report(DiagKind::BlockExtentCorrupt, b, -1, -1,
                   str("block covers [", blk.firstInstr, ", ",
                       blk.firstInstr + blk.numInstrs, ") but ",
                       expected_first, " was expected next of ",
                       instrs.size(), " instructions"));
        }
        expected_first = blk.firstInstr + blk.numInstrs;
    }
    if (result->structurallySound && expected_first != instrs.size()) {
        result->structurallySound = false;
        report(DiagKind::BlockExtentCorrupt, n_blocks - 1, -1, -1,
               str("blocks cover ", expected_first, " of ", instrs.size(),
                   " instructions"));
    }

    // Extent corruption makes per-instruction walks unsafe; stop here.
    if (!result->structurallySound)
        return result;

    // ---- Terminator placement, branch targets, derived edges -------------
    for (int b = 0; b < n_blocks; ++b) {
        const BasicBlock &blk = blocks[b];
        for (unsigned i = blk.firstInstr; i + 1 < blk.firstInstr + blk.numInstrs;
             ++i) {
            if (isTerminatorOp(instrs[i].op)) {
                result->structurallySound = false;
                report(DiagKind::TerminatorMidBlock, b, static_cast<int>(i),
                       -1,
                       str(opcodeName(instrs[i].op),
                           " before the block's last slot"));
            }
        }

        const unsigned last = blk.firstInstr + blk.numInstrs - 1;
        const Instruction &term = instrs[last];
        auto add_edge = [&](int to) {
            if (to < 0 || to >= n_blocks) {
                result->structurallySound = false;
                report(DiagKind::BranchTargetOutOfRange, b,
                       static_cast<int>(last), -1,
                       str(opcodeName(term.op), " targets block B", to,
                           " of ", n_blocks));
                return;
            }
            result->succs[b].push_back(to);
        };

        switch (term.op) {
          case Opcode::EXIT:
            result->hasExit = true;
            break;
          case Opcode::JMP:
            add_edge(term.targetBlock);
            break;
          case Opcode::BRA:
            add_edge(term.targetBlock);
            if (b + 1 >= n_blocks) {
                result->structurallySound = false;
                report(DiagKind::FallThroughOffEnd, b,
                       static_cast<int>(last), -1,
                       "BRA in the final block has no fall-through");
            } else {
                result->succs[b].push_back(b + 1);
            }
            break;
          default:
            if (b + 1 >= n_blocks) {
                result->structurallySound = false;
                report(DiagKind::FallThroughOffEnd, b,
                       static_cast<int>(last), -1,
                       str("final block ends in ", opcodeName(term.op),
                           "; execution falls off the kernel end"));
            } else {
                result->succs[b].push_back(b + 1);
            }
            break;
        }
    }

    for (int b = 0; b < n_blocks; ++b) {
        for (int s : result->succs[b])
            result->preds[s].push_back(b);
    }

    if (!result->hasExit)
        report(DiagKind::NoExit, -1, -1, -1,
               "kernel contains no EXIT instruction; no thread can retire");

    // ---- Stored edges must match the derived ones ------------------------
    auto sorted = [](std::vector<int> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    for (int b = 0; b < n_blocks; ++b) {
        if (sorted(blocks[b].succs) != sorted(result->succs[b]) ||
            sorted(blocks[b].preds) != sorted(result->preds[b])) {
            report(DiagKind::CfgEdgesInconsistent, b, -1, -1,
                   "stored successor/predecessor lists disagree with the "
                   "edges the terminators imply");
        }
    }

    // ---- Operand registers within the declared allocation ----------------
    const int regs = static_cast<int>(kernel.regsPerThread());
    for (unsigned i = 0; i < instrs.size(); ++i) {
        auto check = [&](int reg) {
            if (reg >= regs || reg >= static_cast<int>(kMaxRegsPerThread)) {
                // Dataflow passes size per-register state by regs.
                result->structurallySound = false;
                report(DiagKind::RegisterOutOfRange,
                       kernel.blockOfInstr(i), static_cast<int>(i), reg,
                       str("operand beyond the declared ", regs,
                           " registers/thread"));
            }
        };
        check(instrs[i].dst);
        for (int src : instrs[i].srcs)
            check(src);
    }

    // ---- Reachability from entry over derived edges ----------------------
    std::vector<int> stack{kernel.entryBlock()};
    result->reachable[kernel.entryBlock()] = 1;
    while (!stack.empty()) {
        const int b = stack.back();
        stack.pop_back();
        for (int s : result->succs[b]) {
            if (!result->reachable[s]) {
                result->reachable[s] = 1;
                stack.push_back(s);
            }
        }
    }
    for (int b = 0; b < n_blocks; ++b) {
        if (!result->reachable[b]) {
            result->allReachable = false;
            report(DiagKind::UnreachableBlock, b, -1, -1,
                   "block is unreachable from the entry");
        }
    }

    // ---- Every reachable block must be able to reach an EXIT -------------
    // Backward BFS from EXIT-terminated blocks over derived edges.
    std::vector<char> reaches_exit(n_blocks, 0);
    for (int b = 0; b < n_blocks; ++b) {
        const BasicBlock &blk = blocks[b];
        if (instrs[blk.firstInstr + blk.numInstrs - 1].op == Opcode::EXIT) {
            reaches_exit[b] = 1;
            stack.push_back(b);
        }
    }
    while (!stack.empty()) {
        const int b = stack.back();
        stack.pop_back();
        for (int p : result->preds[b]) {
            if (!reaches_exit[p]) {
                reaches_exit[p] = 1;
                stack.push_back(p);
            }
        }
    }
    for (int b = 0; b < n_blocks; ++b) {
        if (result->reachable[b] && !reaches_exit[b]) {
            result->exitReachableEverywhere = false;
            report(DiagKind::NoPathToExit, b, -1, -1,
                   "reachable block has no path to any EXIT (warps entering "
                   "it can never retire)");
        }
    }

    return result;
}

} // namespace finereg::analysis
