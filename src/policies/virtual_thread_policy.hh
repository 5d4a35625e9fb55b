/**
 * @file
 * Virtual Thread [Yoon+ ISCA'16] comparator. Extra CTAs become resident —
 * with their *full* register allocation kept in the RF — beyond the
 * scheduler limit: when every warp of an active CTA stalls on memory, the
 * CTA's pipeline context parks in shared memory (the CTA turns Pending,
 * its registers stay put) and a new CTA launches or a ready pending CTA
 * resumes in its scheduler slot. Residency is bounded by RF and shared
 * memory capacity, which is why VT gains nothing on Type-R workloads.
 */

#ifndef FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH
#define FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH

#include <memory>
#include <vector>

#include "policies/switching_policy.hh"
#include "regfile/register_file.hh"

namespace finereg
{

class VirtualThreadPolicy : public SwitchingPolicy
{
  public:
    const char *name() const override { return "VirtualThread"; }

    /** Auditor: RF accounting over handle-holding resident CTAs (also
     * covers Reg+DRAM, whose demoted CTAs hold no handle). */
    void audit(const Sm &sm, Cycle now) const override;

    /** VT CTA-switching logic storage (Sec. V-F cites 2.4 KB). */
    std::uint64_t storageOverheadBits() const override
    {
        return std::uint64_t(2400) * 8;
    }

  protected:
    void onBind() override;

    /** The CTA context store: a suspended CTA keeps its RF allocation. */
    Room roomForFresh(const Sm &sm) const override;
    void allocate(Sm &sm, Cta &cta) override;
    void release(Sm &sm, Cta &cta) override;

    RegFileAllocator &rf(const Sm &sm) const { return *rfs_[sm.id()]; }

  private:
    std::vector<std::unique_ptr<RegFileAllocator>> rfs_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH
