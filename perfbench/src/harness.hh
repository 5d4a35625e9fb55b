/**
 * @file
 * The benchmark harness: workload cells, a serial pass runner, a forwarding
 * Policy decorator that times every policy call from outside the simulator,
 * and the stats fingerprint that pins every simulated number.
 *
 * Everything here measures the simulator through its public entry points
 * only — Suite::makeKernel, Simulator::run, the Policy virtual interface —
 * and reads model counters through the public Gpu/StatGroup API.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/gpu_config.hh"
#include "core/simulator.hh"
#include "isa/kernel.hh"
#include "policies/policy.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The policy calls the decorator times; each is a span kind. */
enum class PolicyCall : unsigned char
{
    Tick,           ///< Policy::tick
    NextEvent,      ///< Policy::nextEventCycle
    DepletionCheck, ///< Policy::rfDepletionBlocked
    CtaFinished,    ///< Policy::onCtaFinished
};
inline constexpr std::size_t kPolicyCalls = 4;

const char *policyCallName(PolicyCall call);

/**
 * Folded spans of one cell's policy calls: one (count, total time) pair per
 * call kind, all children of the cell's Simulator::run span. A traced suite
 * pass makes tens of millions of policy calls, so one record per call would
 * cost hundreds of MB; the per-kind totals are all the self-time
 * arithmetic needs.
 */
struct PolicyCallTotals
{
    std::array<std::uint64_t, kPolicyCalls> calls{};
    std::array<std::int64_t, kPolicyCalls> ns{};

    std::uint64_t totalCalls() const;
    double totalSeconds() const;
    double seconds(PolicyCall call) const;
};

/** One recorded span: a layer boundary crossed by the benchmark. */
struct Span
{
    enum class Kind : unsigned char
    {
        Pass,   ///< One serial pass over a workload's cells.
        Cell,   ///< One (app, policy, config) cell, harness included.
        SimRun, ///< Simulator::run inside a cell.
    };

    Kind kind = Kind::Pass;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root.
    std::uint32_t cell = 0;   ///< Cell index + 1; 0 = not cell-scoped.
    std::int64_t startNs = 0; ///< From the recorder's epoch.
    std::int64_t endNs = 0;

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/**
 * Span store for a traced pass: spans stay in memory and are written out
 * once at the end (toJson). Single-threaded, like the benchmark.
 */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(Clock::now()) {}

    /** Open a span and return its id (ids start at 1). */
    std::uint32_t begin(Span::Kind kind, std::uint32_t parent,
                        std::uint32_t cell);
    void end(std::uint32_t id);

    /** Folded policy-call spans of cell @p cell (index + 1). */
    PolicyCallTotals &callTotals(std::uint32_t cell);

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::uint32_t, PolicyCallTotals> &callTotals() const
    {
        return calls_;
    }

    /** Self time of span @p id: its duration minus its children's,
     * folded policy-call spans included. */
    double selfSeconds(std::uint32_t id) const;

    /** Every span and folded call total as one JSON document. */
    std::string toJson() const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::map<std::uint32_t, PolicyCallTotals> calls_;
};

/** A finished cell's stat group, captured when its Gpu tears down. */
struct CellStats
{
    bool captured = false;
    std::string dump;
    std::map<std::string, std::uint64_t> counters;

    std::uint64_t
    counter(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

/**
 * Forwarding Policy decorator. Every virtual goes to the wrapped policy,
 * so the auditor and the storage accounting see exactly what they would
 * see without it. With @p totals set, tick / nextEventCycle /
 * rfDepletionBlocked / onCtaFinished are timed into it; with nullptr the
 * decorator only forwards. Either way, when the owning Gpu destroys it —
 * after Simulator::run has read every result — it copies the Gpu's stat
 * group into @p sink.
 *
 * The watchdog's FineReg stall-dump detail (a dynamic_cast to
 * FineRegPolicy) does not see through the decorator.
 */
class TracingPolicy final : public finereg::Policy
{
  public:
    TracingPolicy(std::unique_ptr<finereg::Policy> inner, CellStats &sink,
                  PolicyCallTotals *totals);
    ~TracingPolicy() override;

    TracingPolicy(const TracingPolicy &) = delete;
    TracingPolicy &operator=(const TracingPolicy &) = delete;

    const char *name() const override;
    void tick(finereg::Sm &sm, finereg::Cycle now) override;
    void onCtaFinished(finereg::Sm &sm, finereg::Cta &cta,
                       finereg::Cycle now) override;
    bool rfDepletionBlocked(const finereg::Sm &sm,
                            finereg::Cycle now) const override;
    finereg::Cycle nextEventCycle(const finereg::Sm &sm,
                                  finereg::Cycle now) const override;
    std::uint64_t storageOverheadBits() const override;
    void audit(const finereg::Sm &sm, finereg::Cycle now) const override;

  protected:
    void onBind() override;

  private:
    std::unique_ptr<finereg::Policy> inner_;
    CellStats &sink_;
    PolicyCallTotals *totals_;
    bool bound_ = false;
};

/** One (app, policy, config) simulation of a workload. */
struct Cell
{
    std::size_t app = 0;    ///< Index into Suite::all().
    std::string label;      ///< Policy slug (baseline, vt, ...).
    finereg::GpuConfig config;
};

/** A named benchmark workload: its cells, in serial run order. */
struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /** Every cell runs its policy's default ACRF/PCRF split, the
     * configuration behind the paper's Fig. 13 speedups. */
    bool defaultSplit = true;
};

/** Workload names, in BENCHMARK.json order (the table makeWorkload
 * reads). */
const std::vector<std::string> &workloadNames();

/** Policy slugs used in metric names, in report order. */
const std::vector<std::string> &policyLabels();

/**
 * Build workload @p name with config seed @p seed over @p apps (indices
 * into Suite::all(); empty = all 18). Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out, const std::vector<std::size_t> &apps = {});

/** Kernels for every suite app, in Suite::all() order. */
using KernelSet = std::vector<std::unique_ptr<finereg::Kernel>>;

/** Build every app's kernel (Suite::makeKernel). */
KernelSet buildKernels(double grid_scale);

/** What one cell left behind. */
struct CellResult
{
    finereg::SimResult sim;
    CellStats stats;
    double wallSeconds = 0.0; ///< The whole cell, harness included.
};

/** One serial pass over a workload. */
struct PassResult
{
    std::vector<CellResult> cells;
    double wallSeconds = 0.0;
    std::uint64_t fingerprint = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
};

/**
 * Run every cell of @p workload once, serially, one cell at a time. With
 * @p tracer set, records Pass / Cell / SimRun spans and folded policy-call
 * spans; otherwise only the pass's and each cell's wall time are taken.
 */
PassResult runPass(const Workload &workload, const KernelSet &kernels,
                   SpanRecorder *tracer = nullptr);

/** 64-bit FNV-1a, continuing from @p hash. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/**
 * Counters that describe the host-side implementation, not the simulated
 * GPU (loop iterations, event-wheel traffic, bit-vector word operations,
 * audits). The fingerprint excludes them so that a simulator-only speed-up
 * leaves it unchanged.
 */
bool isHostCounter(std::string_view stat_name);

/** Fingerprint of one cell: its stat dump (host counters excluded) and
 * its energy breakdown. */
std::uint64_t cellFingerprint(const CellResult &cell, std::uint64_t hash);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
