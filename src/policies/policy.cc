#include "policies/policy.hh"

#include "common/log.hh"
#include "core/gpu_config.hh"
#include "policies/baseline_policy.hh"
#include "policies/finereg_policy.hh"
#include "policies/reg_dram_policy.hh"
#include "policies/regmutex_policy.hh"
#include "policies/virtual_thread_policy.hh"
#include "sm/gpu.hh"

namespace finereg
{

void
Policy::bind(Gpu &gpu)
{
    gpu_ = &gpu;
    dispatcher_ = &gpu.dispatcher();
    onBind();
}

const GpuConfig &
Policy::config() const
{
    return gpu_->config();
}

bool
Policy::rfDepletionBlocked(const Sm &, Cycle) const
{
    return false;
}

void
Policy::audit(const Sm &, Cycle) const
{
}

Cycle
Policy::nextEventCycle(const Sm &, Cycle) const
{
    return kNoCycle;
}

std::unique_ptr<Policy>
makePolicy(const GpuConfig &config)
{
    switch (config.policy.kind) {
      case PolicyKind::Baseline:
        return std::make_unique<BaselinePolicy>();
      case PolicyKind::VirtualThread:
        return std::make_unique<VirtualThreadPolicy>();
      case PolicyKind::RegDram:
        return std::make_unique<RegDramPolicy>();
      case PolicyKind::RegMutex:
        return std::make_unique<RegMutexPolicy>();
      case PolicyKind::FineReg:
        return std::make_unique<FineRegPolicy>();
    }
    FINEREG_PANIC("unknown policy kind");
}

} // namespace finereg
