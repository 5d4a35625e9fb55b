/**
 * @file
 * Register management unit (Sec. V-C, Fig. 10). On a CTA switch the RMU
 * looks up each stalled warp's PC in the live-register bit-vector cache;
 * misses fetch the 12-byte table entry from off-chip memory (TrafficClass::
 * BitVector). The decoded register indices drive the ACRF<->PCRF transfer,
 * whose chain walk is pipelined at one entry per cycle after a fixed
 * tag+register access delay.
 */

#ifndef FINEREG_REGFILE_RMU_HH
#define FINEREG_REGFILE_RMU_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_hierarchy.hh"
#include "regfile/bitvec_cache.hh"
#include "regfile/pcrf.hh"
#include "sm/cta.hh"
#include "sm/kernel_context.hh"

namespace finereg
{

struct RmuConfig
{
    unsigned bitvecCacheEntries = 32;
    Cycle pcrfAccessLatency = 4;

    /** Ablation: treat every allocated register as live. */
    bool fullContextBackup = false;

    /** Test hook: deliberately drop this register from every gathered
     * liveness mask (-1 = off); see PolicyConfig::dropLiveReg. */
    int dropLiveReg = -1;
};

class FaultInjector;

class Rmu
{
  public:
    /** @p fault (optional) can force bit-vector cache hits to miss. */
    Rmu(const RmuConfig &config, const KernelContext &context,
        MemHierarchy &mem, StatGroup &stats, FaultInjector *fault = nullptr);

    struct Gather
    {
        /**
         * Live-register mask per warp, indexed by warp id (finished warps
         * hold an empty mask). The 64-bit word form flows end-to-end:
         * the PCRF stores chains straight from it and CTA eviction uses
         * it as the value keep-mask, with no per-register vector built
         * in between.
         */
        std::vector<RegBitVec> warpLive;

        /** Sum of warpLive popcounts (chain length of the backup). */
        unsigned totalRegs = 0;

        /** Cycle at which all needed bit vectors are on-chip. */
        Cycle bitvecReadyCycle = 0;

        unsigned cacheMisses = 0;

        /**
         * Visit every live (warp, reg) pair warp-major in ascending
         * register order — the chain order of the old vector encoding.
         */
        template <typename Fn>
        void
        forEachReg(Fn &&fn) const
        {
            for (std::size_t w = 0; w < warpLive.size(); ++w)
                warpLive[w].forEach([&](RegIndex r) {
                    fn(static_cast<WarpId>(w), r);
                });
        }

        /** Materialize the chain-order LiveReg vector (tests, cold paths). */
        std::vector<LiveReg>
        toVector() const
        {
            std::vector<LiveReg> regs;
            regs.reserve(totalRegs);
            forEachReg([&](WarpId w, RegIndex r) { regs.push_back({w, r}); });
            return regs;
        }
    };

    /**
     * Determine the live register set of a stalled CTA. For warps that are
     * mid-divergence the union of liveness over all SIMT-stack PCs is used
     * (every path's registers must survive).
     *
     * Returns a reference to an internal scratch Gather, valid until the
     * next call: reusing the buffer keeps the switch path allocation-free.
     */
    const Gather &gatherLiveRegs(const Cta &cta, Cycle now);

    /**
     * Latency of moving @p n_regs through the PCRF port: one fixed
     * tag+register access, then pipelined one entry per cycle (Sec. V-E).
     */
    Cycle
    transferLatency(unsigned n_regs) const
    {
        if (n_regs == 0)
            return config_.pcrfAccessLatency;
        return config_.pcrfAccessLatency + n_regs;
    }

    BitvecCache &cache() { return cache_; }
    const RmuConfig &config() const { return config_; }

    /** RMU SRAM bits: bit-vector cache + pointer-table contribution is
     * reported by the Pcrf; here only the cache. */
    std::uint64_t storageBits() const { return cache_.storageBits(); }

  private:
    RmuConfig config_;
    const KernelContext *context_;
    MemHierarchy *mem_;
    BitvecCache cache_;
    FaultInjector *fault_;
    Counter *gathers_;
    Counter *wordOps_;
    Gather scratch_;
};

} // namespace finereg

#endif // FINEREG_REGFILE_RMU_HH
