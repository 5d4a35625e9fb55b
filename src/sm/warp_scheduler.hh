/**
 * @file
 * Warp schedulers. Each SM has several (Table I: 4); every resident active
 * warp is statically assigned to one. GTO (greedy-then-oldest, the paper's
 * configuration) keeps issuing from the same warp until it stalls, then
 * falls back to the oldest schedulable warp; LRR round-robins. A scheduler
 * reads each warp's cached wake cycle and keeps a lower bound on them, so
 * a tick with no due warp costs O(1).
 */

#ifndef FINEREG_SM_WARP_SCHEDULER_HH
#define FINEREG_SM_WARP_SCHEDULER_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "sm/cta.hh"
#include "sm/warp.hh"

namespace finereg
{

enum class SchedKind : unsigned char { GTO, LRR };

class WarpScheduler
{
  public:
    WarpScheduler(SchedKind kind, unsigned id) : kind_(kind), id_(id) {}

    unsigned id() const { return id_; }

    /** Append @p warp (LRR rotates over insertion order) and own it. */
    void
    addWarp(Warp *warp)
    {
        warps_.push_back(warp);
        warp->setOwner(this);
        lowerBound(warp->wakeCycle());
    }

    /** Drop @p warp, which this scheduler must own. */
    void
    removeWarp(Warp *warp)
    {
        warps_.erase(std::remove(warps_.begin(), warps_.end(), warp),
                     warps_.end());
        warp->setOwner(nullptr);
        if (greedy_ == warp)
            greedy_ = nullptr;
        if (rrIndex_ >= warps_.size())
            rrIndex_ = 0;
    }

    const std::vector<Warp *> &warps() const { return warps_; }

    /**
     * Lower bound on the wake cycle of every listed warp: while it lies
     * in the future no warp is due, and tick() skips this scheduler.
     */
    Cycle nextDue() const { return nextDue_; }

    /** A listed warp's wake may have dropped to @p wake. */
    void lowerBound(Cycle wake) { nextDue_ = std::min(nextDue_, wake); }

    /**
     * Pick a warp to issue from: the first due warp (wakeCycle() <= @p now)
     * under the policy's priority order, skipping global-memory warps
     * unless @p mem_port_free. A full scan also tightens nextDue() to the
     * wakes of the warps it did not pick; the picked warp restores the
     * bound when it refreshes its readiness after issuing.
     */
    Warp *
    pick(Cycle now, bool mem_port_free)
    {
        auto issuable = [&](const Warp *w) {
            return w->wakeCycle() <= now &&
                   (mem_port_free || !w->needsMemPort());
        };

        if (kind_ == SchedKind::GTO) {
            // Greedy: stick with the last issuer while it can go.
            if (greedy_ && issuable(greedy_))
                return greedy_;
            // Then-oldest: earliest CTA launch, then lowest warp id.
            Warp *best = nullptr;
            Cycle bound = kNoCycle;
            for (Warp *w : warps_) {
                Warp *passed = w;
                if (issuable(w) && (!best || olderThan(w, best))) {
                    passed = best;
                    best = w;
                }
                if (passed)
                    bound = std::min(bound, passed->wakeCycle());
            }
            nextDue_ = bound;
            greedy_ = best ? best : greedy_;
            return best;
        }

        // LRR: rotate through the list starting after the last pick.
        const std::size_t n = warps_.size();
        Cycle bound = kNoCycle;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (rrIndex_ + 1 + k) % n;
            if (issuable(warps_[i])) {
                rrIndex_ = i;
                return warps_[i];
            }
            bound = std::min(bound, warps_[i]->wakeCycle());
        }
        nextDue_ = bound;
        return nullptr;
    }

  private:
    static bool
    olderThan(const Warp *a, const Warp *b)
    {
        const unsigned sa = a->cta()->launchSeq();
        const unsigned sb = b->cta()->launchSeq();
        if (sa != sb)
            return sa < sb;
        return a->id() < b->id();
    }

    SchedKind kind_;
    unsigned id_;
    std::vector<Warp *> warps_;
    Warp *greedy_ = nullptr;
    std::size_t rrIndex_ = 0;
    Cycle nextDue_ = kNoCycle;
};

} // namespace finereg

#endif // FINEREG_SM_WARP_SCHEDULER_HH
