#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hh"
#include "sm/gpu.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using finereg::Cycle;
using finereg::GpuConfig;
using finereg::PolicyKind;

const char *
policyCallName(PolicyCall call)
{
    switch (call) {
      case PolicyCall::Tick: return "tick";
      case PolicyCall::NextEvent: return "next_event";
      case PolicyCall::DepletionCheck: return "depletion_check";
      case PolicyCall::CtaFinished: return "cta_finished";
    }
    return "?";
}

std::uint64_t
PolicyCallTotals::totalCalls() const
{
    std::uint64_t sum = 0;
    for (const std::uint64_t c : calls)
        sum += c;
    return sum;
}

double
PolicyCallTotals::totalSeconds() const
{
    std::int64_t sum = 0;
    for (const std::int64_t t : ns)
        sum += t;
    return sum * 1e-9;
}

double
PolicyCallTotals::seconds(PolicyCall call) const
{
    return ns[static_cast<std::size_t>(call)] * 1e-9;
}

// SpanRecorder ---------------------------------------------------------------

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::uint32_t
SpanRecorder::begin(Span::Kind kind, std::uint32_t parent,
                    std::uint32_t cell)
{
    Span span;
    span.kind = kind;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.cell = cell;
    span.startNs = nowNs();
    spans_.push_back(span);
    return span.id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    spans_.at(id - 1).endNs = nowNs();
}

PolicyCallTotals &
SpanRecorder::callTotals(std::uint32_t cell)
{
    return calls_[cell];
}

double
SpanRecorder::selfSeconds(std::uint32_t id) const
{
    const Span &span = spans_.at(id - 1);
    double self = span.seconds();
    for (const Span &child : spans_) {
        if (child.parent == id)
            self -= child.seconds();
    }
    // Folded policy-call spans are children of a cell's SimRun span.
    if (span.kind == Span::Kind::SimRun) {
        const auto it = calls_.find(span.cell);
        if (it != calls_.end())
            self -= it->second.totalSeconds();
    }
    return self;
}

std::string
SpanRecorder::toJson() const
{
    static const char *const kKindNames[] = {"pass", "cell", "sim_run"};
    std::ostringstream oss;
    oss << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        oss << (i ? "," : "") << "{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
            << ",\"kind\":\"" << kKindNames[static_cast<int>(s.kind)]
            << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
            << '}';
    }
    oss << "],\"policy_calls\":[";
    bool first = true;
    for (const auto &[cell, totals] : calls_) {
        for (std::size_t k = 0; k < kPolicyCalls; ++k) {
            oss << (first ? "" : ",") << "{\"cell\":" << cell
                << ",\"call\":\""
                << policyCallName(static_cast<PolicyCall>(k))
                << "\",\"count\":" << totals.calls[k]
                << ",\"ns\":" << totals.ns[k] << '}';
            first = false;
        }
    }
    oss << "]}";
    return oss.str();
}

// TracingPolicy --------------------------------------------------------------

namespace
{

/** Times one policy call into a PolicyCallTotals slot (no-op when off). */
class CallTimer
{
  public:
    CallTimer(PolicyCallTotals *totals, PolicyCall call)
        : totals_(totals), slot_(static_cast<std::size_t>(call))
    {
        if (totals_)
            start_ = Clock::now();
    }

    ~CallTimer()
    {
        if (!totals_)
            return;
        totals_->calls[slot_] += 1;
        totals_->ns[slot_] +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start_)
                .count();
    }

    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    PolicyCallTotals *totals_;
    std::size_t slot_;
    Clock::time_point start_{};
};

} // namespace

TracingPolicy::TracingPolicy(std::unique_ptr<finereg::Policy> inner,
                             CellStats &sink, PolicyCallTotals *totals)
    : inner_(std::move(inner)), sink_(sink), totals_(totals)
{
}

TracingPolicy::~TracingPolicy()
{
    // The Gpu destroys its policy before its stat group, so the group is
    // still whole here, and Simulator::run has finished reading it.
    if (!bound_)
        return;
    const finereg::StatGroup &stats = gpu().stats();
    sink_.captured = true;
    sink_.dump = stats.dump();
    sink_.counters.clear();
    for (const std::string &name : stats.counterNames())
        sink_.counters.emplace(name, stats.counterValue(name));
}

void
TracingPolicy::onBind()
{
    inner_->bind(gpu());
    bound_ = true;
}

const char *
TracingPolicy::name() const
{
    return inner_->name();
}

void
TracingPolicy::tick(finereg::Sm &sm, Cycle now)
{
    const CallTimer timer(totals_, PolicyCall::Tick);
    inner_->tick(sm, now);
}

void
TracingPolicy::onCtaFinished(finereg::Sm &sm, finereg::Cta &cta, Cycle now)
{
    const CallTimer timer(totals_, PolicyCall::CtaFinished);
    inner_->onCtaFinished(sm, cta, now);
}

bool
TracingPolicy::rfDepletionBlocked(const finereg::Sm &sm, Cycle now) const
{
    const CallTimer timer(totals_, PolicyCall::DepletionCheck);
    return inner_->rfDepletionBlocked(sm, now);
}

Cycle
TracingPolicy::nextEventCycle(const finereg::Sm &sm, Cycle now) const
{
    const CallTimer timer(totals_, PolicyCall::NextEvent);
    return inner_->nextEventCycle(sm, now);
}

std::uint64_t
TracingPolicy::storageOverheadBits() const
{
    return inner_->storageOverheadBits();
}

void
TracingPolicy::audit(const finereg::Sm &sm, Cycle now) const
{
    inner_->audit(sm, now);
}

// Workloads ------------------------------------------------------------------

namespace
{

/** One row per workload: its policies and, if set, its ACRF/PCRF split. */
struct WorkloadDef
{
    const char *name;
    std::vector<const char *> labels;
    unsigned acrfKb = 0; ///< 0 = each policy's default split.
    unsigned pcrfKb = 0;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> kDefs{
        {"baseline-suite", {"baseline"}},
        {"switching-suite", {"vt", "regdram", "regmutex", "finereg"}},
        // The tight end of the Fig. 17 ACRF/PCRF split axis.
        {"finereg-pcrf-starved", {"finereg"}, 224, 32},
    };
    return kDefs;
}

PolicyKind
policyForLabel(const std::string &label)
{
    static const PolicyKind kKinds[] = {
        PolicyKind::Baseline, PolicyKind::VirtualThread, PolicyKind::RegDram,
        PolicyKind::RegMutex, PolicyKind::FineReg};
    const auto &labels = policyLabels();
    const auto it = std::find(labels.begin(), labels.end(), label);
    if (it == labels.end())
        throw std::invalid_argument("unknown policy label " + label);
    return kKinds[it - labels.begin()];
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> names;
        for (const WorkloadDef &def : workloadDefs())
            names.emplace_back(def.name);
        return names;
    }();
    return kNames;
}

const std::vector<std::string> &
policyLabels()
{
    static const std::vector<std::string> kLabels{
        "baseline", "vt", "regdram", "regmutex", "finereg"};
    return kLabels;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out,
             const std::vector<std::size_t> &apps)
{
    const auto &defs = workloadDefs();
    const auto def = std::find_if(defs.begin(), defs.end(),
                                  [&](const WorkloadDef &d) {
                                      return d.name == name;
                                  });
    if (def == defs.end())
        return false;

    std::vector<std::size_t> app_order = apps;
    if (app_order.empty()) {
        for (std::size_t a = 0; a < finereg::Suite::all().size(); ++a)
            app_order.push_back(a);
    }
    out.name = name;
    out.defaultSplit = def->acrfKb == 0;
    out.cells.clear();
    for (const std::string label : def->labels) {
        GpuConfig config =
            finereg::Experiment::configFor(policyForLabel(label));
        config.seed = seed;
        if (!out.defaultSplit) {
            config.policy.acrfBytes = def->acrfKb * 1024;
            config.policy.pcrfBytes = def->pcrfKb * 1024;
        }
        for (const std::size_t a : app_order)
            out.cells.push_back(Cell{a, label, config});
    }
    return true;
}

KernelSet
buildKernels(double grid_scale)
{
    KernelSet kernels;
    for (const auto &app : finereg::Suite::all())
        kernels.push_back(finereg::Suite::makeKernel(app, grid_scale));
    return kernels;
}

// Pass runner ----------------------------------------------------------------

PassResult
runPass(const Workload &workload, const KernelSet &kernels,
        SpanRecorder *tracer)
{
    PassResult pass;
    pass.cells.resize(workload.cells.size());
    std::uint64_t hash = fnv1a({});
    const Clock::time_point start = Clock::now();
    const std::uint32_t pass_span =
        tracer ? tracer->begin(Span::Kind::Pass, 0, 0) : 0;

    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
        const Cell &cell = workload.cells[i];
        CellResult &out = pass.cells[i];
        const auto cell_id = static_cast<std::uint32_t>(i + 1);
        const Clock::time_point cell_start = Clock::now();
        const std::uint32_t cell_span =
            tracer ? tracer->begin(Span::Kind::Cell, pass_span, cell_id) : 0;

        PolicyCallTotals *totals =
            tracer ? &tracer->callTotals(cell_id) : nullptr;
        auto policy = std::make_unique<TracingPolicy>(
            finereg::makePolicy(cell.config), out.stats, totals);

        const std::uint32_t run_span =
            tracer ? tracer->begin(Span::Kind::SimRun, cell_span, cell_id)
                   : 0;
        out.sim = finereg::Simulator::run(cell.config, *kernels.at(cell.app),
                                          std::move(policy));
        if (tracer)
            tracer->end(run_span);

        hash = cellFingerprint(out, hash);
        pass.cycles += out.sim.cycles;
        pass.instructions += out.sim.instructions;
        if (tracer)
            tracer->end(cell_span);
        out.wallSeconds = secondsSince(cell_start);
    }

    if (tracer)
        tracer->end(pass_span);
    pass.wallSeconds = secondsSince(start);
    pass.fingerprint = hash;
    return pass;
}

// Fingerprint ----------------------------------------------------------------

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t hash)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

bool
isHostCounter(std::string_view stat_name)
{
    static constexpr std::string_view kHost[] = {
        "gpu.loop_iterations", "gpu.skipped_cycles", "gpu.wheel_pushes",
        "gpu.wheel_pops",      "rmu.bitvec_word_ops", "verify.full_audits",
        "verify.edge_audits"};
    return std::find(std::begin(kHost), std::end(kHost), stat_name) !=
           std::end(kHost);
}

std::uint64_t
cellFingerprint(const CellResult &cell, std::uint64_t hash)
{
    // Dump lines read "<group>.<stat> <values>"; the Gpu's group is "gpu".
    constexpr std::string_view kGroup = "gpu.";
    std::string_view dump = cell.stats.dump;
    while (!dump.empty()) {
        const std::size_t eol = std::min(dump.find('\n'), dump.size());
        const std::string_view line = dump.substr(0, eol);
        dump.remove_prefix(std::min(eol + 1, dump.size()));
        std::string_view stat = line.substr(0, line.find(' '));
        if (stat.substr(0, kGroup.size()) == kGroup)
            stat.remove_prefix(kGroup.size());
        if (!isHostCounter(stat))
            hash = fnv1a(line, fnv1a("\n", hash));
    }
    const finereg::EnergyBreakdown &e = cell.sim.energy;
    for (const double v : {e.dramDyn, e.rfDyn, e.othersDyn, e.leakage,
                           e.fineregOverhead, e.ctaSwitching}) {
        char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        hash = fnv1a(std::string_view(bytes, sizeof bytes), hash);
    }
    return hash;
}

} // namespace perfbench
