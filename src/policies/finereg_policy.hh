/**
 * @file
 * FineReg (Secs. IV-V): the register file is split into the ACRF (full
 * allocations of active CTAs) and the PCRF (live registers of pending CTAs
 * as tagged chains). When all warps of an active CTA stall on memory, the
 * RMU gathers the warps' live-register bit vectors (bit-vector cache;
 * misses fetch 12 B from off-chip), the live registers move into the PCRF,
 * the CTA's ACRF allocation is released, and either a fresh CTA launches or
 * a ready pending CTA is restored. When the PCRF is full, only
 * ACRF<->PCRF context switches happen, and only when the stalled CTA's
 * live set fits the space a departing pending CTA frees (Sec. V-E). The
 * CTA status monitor tracks Table IV's context/register location encoding.
 */

#ifndef FINEREG_POLICIES_FINEREG_POLICY_HH
#define FINEREG_POLICIES_FINEREG_POLICY_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "policies/switching_policy.hh"
#include "sm/sm.hh"
#include "regfile/cta_status_monitor.hh"
#include "regfile/pcrf.hh"
#include "regfile/register_file.hh"
#include "regfile/rmu.hh"

namespace finereg
{

class FineRegPolicy : public SwitchingPolicy
{
  public:
    const char *name() const override { return "FineReg"; }

    /** Invariant auditor: PCRF chains, ACRF accounting, Table IV states. */
    void audit(const Sm &sm, Cycle now) const override;

    /** Sec. V-F storage accounting: status monitor + bit-vector cache +
     * PCRF pointer table + PCRF tags + CTA switching logic (2.4 KB). */
    std::uint64_t storageOverheadBits() const override;

    /** Introspection for tests/benches. */
    const Pcrf &pcrfOf(const Sm &sm) const { return *state(sm).pcrf; }
    const CtaStatusMonitor &monitorOf(const Sm &sm) const
    {
        return state(sm).monitor;
    }
    const RegFileAllocator &acrfOf(const Sm &sm) const
    {
        return *state(sm).acrf;
    }

    /** Mutable introspection for corruption/fault-injection tests. */
    Pcrf &mutablePcrfOf(const Sm &sm) { return *state(sm).pcrf; }
    RegFileAllocator &mutableAcrfOf(const Sm &sm) { return *state(sm).acrf; }

  protected:
    void onBind() override;

    /**
     * The context store: an active CTA holds a full ACRF allocation, a
     * suspended one only its live registers as a PCRF chain. Switching a
     * CTA out frees its ACRF allocation, so growth needs no register room
     * and a resume after a switch-out always fits; a ready pending CTA is
     * preferred over a fresh one. A refill restore pays only its chain
     * walk, not the switch initiation cost.
     */
    Room roomForFresh(const Sm &sm) const override;
    bool roomToGrow(const Sm &) const override { return true; }
    void allocate(Sm &sm, Cta &cta) override;
    bool
    roomToResume(const Sm &sm) const override
    {
        return roomForFresh(sm) == Room::Yes;
    }
    Room tryResume(Sm &sm, Cta &cta, Cycle now, Cycle latency) override;
    SwitchOut switchOut(Sm &sm, Cta &cta, Cycle now, Cta *ready) override;
    void noPartner(Sm &sm, Cta &cta, Cycle now) override;
    void release(Sm &sm, Cta &cta) override;
    Cycle refillLatency() const override { return 0; }
    bool resumeBeforeLaunch() const override { return true; }

  private:
    struct SmState
    {
        std::unique_ptr<RegFileAllocator> acrf;
        std::unique_ptr<Pcrf> pcrf;
        std::unique_ptr<Rmu> rmu;
        CtaStatusMonitor monitor;

        /** Scratch for restoreCtaLastPositions (per-warp 1-based chain
         * position of the last restored register); reused every switch
         * so the hot path never allocates. */
        std::vector<unsigned> posScratch;
    };

    SmState &state(const Sm &sm) const { return *states_[sm.id()]; }

    /**
     * Give pending @p cta, whose PCRF chain was just drained into
     * posScratch, a full ACRF allocation and resume it. Pipelined chain
     * walk: each warp wakes when its own registers land.
     */
    void reactivate(Sm &sm, Cta &cta, Cycle now, Cycle latency);

    /** Evict a fully stalled CTA's live registers into the PCRF. */
    void evictCta(Sm &sm, Cta &cta, const Rmu::Gather &gather, Cycle now);

    mutable std::vector<std::unique_ptr<SmState>> states_;

    /** Per-candidate counters, cached at bind so the hot path skips the
     * name-keyed stats lookup. */
    Counter *stalledFound_ = nullptr;
    Counter *noPartner_ = nullptr;
};

} // namespace finereg

#endif // FINEREG_POLICIES_FINEREG_POLICY_HH
