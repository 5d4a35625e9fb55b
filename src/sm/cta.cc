#include "sm/cta.hh"

#include <algorithm>

#include "common/log.hh"
#include "ref/cta_values.hh"

namespace finereg
{

Cta::Cta(GridCtaId grid_id, unsigned launch_seq, const KernelContext &context,
         std::uint64_t seed_base)
    : gridId_(grid_id), launchSeq_(launch_seq), context_(&context)
{
    const unsigned n_warps = context.kernel().warpsPerCta();
    warps_.reserve(n_warps);
    for (unsigned w = 0; w < n_warps; ++w) {
        const std::uint64_t warp_seed =
            seed_base + 0x9e3779b97f4a7c15ull * (w + 1);
        warps_.push_back(
            std::make_unique<Warp>(this, WarpId(w), context, warp_seed));
    }
}

Cta::~Cta() = default;

void
Cta::enableValueTracking()
{
    if (!values_)
        values_ = std::make_unique<CtaValues>(gridId_, *context_);
}

bool
Cta::arriveAtBarrier()
{
    ++barrierCount_;
    const unsigned live = numWarps() - finishedWarps_;
    return barrierCount_ >= live;
}

Cta::StallCheck
Cta::checkFullStall(Cycle now) const
{
    StallCheck check;
    Cycle until = kNoCycle;
    bool any_mem_blocked = false;
    for (const auto &warp : warps_) {
        if (warp->finished() || warp->atBarrier())
            continue;
        if (warp->earliestIssue() > now) {
            // Issue shadow: not a stall until the shadow ends.
            check.recheckAt = warp->earliestIssue();
            return check;
        }
        // A warp not blocked on memory stays so until it issues.
        if (warp->memoryHorizon() <= now)
            return check;
        any_mem_blocked = true;
        until = std::min(until, warp->operandReadyCycle());
    }
    if (any_mem_blocked)
        check.until = until; // > now: operands wait on memory past now
    return check;
}

Cycle
Cta::estimateReadyCycle(Cycle now) const
{
    std::vector<Cycle> wake;
    for (const auto &warp : warps_) {
        if (warp->finished() || warp->atBarrier())
            continue;
        wake.push_back(warp->scoreboard().lastPendingCycle(now));
    }
    if (wake.empty())
        return now;
    std::sort(wake.begin(), wake.end());
    // Ready when half the blocked warps can run again.
    return wake[(wake.size() - 1) / 2];
}

Cycle
Cta::closeExecutionEpisode(Cycle now)
{
    if (!episodeOpen_)
        return 0;
    episodeOpen_ = false;
    return now > episodeStart_ ? now - episodeStart_ : 0;
}

} // namespace finereg
