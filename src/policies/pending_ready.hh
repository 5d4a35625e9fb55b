/**
 * @file
 * PendingReadySet: the per-SM map of suspended CTAs to the cycle their
 * context switch is expected to complete, augmented with a lazy min-heap
 * so the hot-path questions — "is anything ready yet?" and "when is the
 * next event?" — are O(1) instead of a scan over every pending CTA.
 *
 * The map stays the source of truth for point lookups; the heap only
 * accelerates minReady(). Scans over the pending CTAs read the
 * Cta::policyReadyCycle mirror instead (see SwitchingPolicy). A heap
 * entry is valid iff the map still holds exactly that (cta, ready) pair,
 * so overwrites and erasures need no heap surgery — stale entries are
 * discarded when they surface at the top.
 */

#ifndef FINEREG_POLICIES_PENDING_READY_HH
#define FINEREG_POLICIES_PENDING_READY_HH

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace finereg
{

class PendingReadySet
{
  public:
    void
    set(GridCtaId cta, Cycle ready)
    {
        map_[cta] = ready;
        heap_.emplace_back(ready, cta);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }

    void erase(GridCtaId cta) { map_.erase(cta); }

    bool contains(GridCtaId cta) const { return map_.count(cta) != 0; }

    /** Ready cycle of @p cta, or kNoCycle when it is not pending. */
    Cycle
    readyCycle(GridCtaId cta) const
    {
        const auto it = map_.find(cta);
        return it == map_.end() ? kNoCycle : it->second;
    }

    /**
     * Smallest ready cycle over all pending CTAs; kNoCycle when empty.
     * Amortized O(1): each heap entry is popped at most once.
     */
    Cycle
    minReady() const
    {
        while (!heap_.empty()) {
            const auto &[ready, cta] = heap_.front();
            const auto it = map_.find(cta);
            if (it != map_.end() && it->second == ready)
                return ready;
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();
        }
        return kNoCycle;
    }

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<GridCtaId, Cycle> map_;
    mutable std::vector<std::pair<Cycle, GridCtaId>> heap_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_PENDING_READY_HH
