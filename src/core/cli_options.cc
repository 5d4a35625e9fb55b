#include "core/cli_options.hh"

#include <cstdlib>
#include <sstream>

#include "workloads/suite.hh"

namespace finereg
{

namespace
{

/** Split "a,b,c" into tokens. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::stringstream ss(value);
    std::string token;
    while (std::getline(ss, token, ',')) {
        if (!token.empty())
            out.push_back(token);
    }
    return out;
}

ParseResult
fail(const std::string &message)
{
    ParseResult result;
    result.error = message;
    return result;
}

} // namespace

std::optional<PolicyKind>
parsePolicyName(const std::string &name)
{
    if (name == "baseline" || name == "base")
        return PolicyKind::Baseline;
    if (name == "vt" || name == "virtualthread" || name == "virtual-thread")
        return PolicyKind::VirtualThread;
    if (name == "regdram" || name == "reg+dram" || name == "zorua")
        return PolicyKind::RegDram;
    if (name == "regmutex" || name == "vt+regmutex")
        return PolicyKind::RegMutex;
    if (name == "finereg")
        return PolicyKind::FineReg;
    return std::nullopt;
}

ParseResult
parseCliOptions(const std::vector<std::string> &args)
{
    CliOptions options;

    auto need_value = [&](std::size_t i) -> std::optional<std::string> {
        if (i + 1 >= args.size())
            return std::nullopt;
        return args[i + 1];
    };

    // Parse the value after flag args[i] into @p out and step i past it.
    // On a missing or malformed value, returns false with `bad` set.
    std::string bad;
    auto number = [&]<typename T>(std::size_t &i, T &out) {
        if (i + 1 >= args.size()) {
            bad = args[i] + " needs a value";
            return false;
        }
        const std::optional<T> parsed = parseNumber<T>(args[i + 1]);
        if (!parsed) {
            bad = args[i] + " got '" + args[i + 1] +
                  "', which is not a valid number";
            return false;
        }
        out = *parsed;
        ++i;
        return true;
    };

    bool acrf_set = false;
    bool pcrf_set = false;
    auto &policy = options.config.policy;
    auto &verify = options.config.verify;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];

        if (arg == "--help" || arg == "-h") {
            options.help = true;
        } else if (arg == "--list-apps") {
            options.listApps = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--diff-check") {
            options.diffCheck = true;
        } else if (arg == "--unified-memory") {
            policy.unifiedMemory = true;
        } else if (arg == "--app") {
            const auto value = need_value(i);
            if (!value)
                return fail("--app needs a value");
            ++i;
            for (const auto &name : splitList(*value)) {
                bool known = false;
                for (const auto &app : Suite::all())
                    known = known || app.abbrev == name;
                if (!known)
                    return fail("unknown app '" + name +
                                "' (see --list-apps)");
                options.apps.push_back(name);
            }
        } else if (arg == "--policy") {
            const auto value = need_value(i);
            if (!value)
                return fail("--policy needs a value");
            ++i;
            options.policies.clear();
            for (const auto &name : splitList(*value)) {
                if (name == "all") {
                    options.policies = {
                        PolicyKind::Baseline, PolicyKind::VirtualThread,
                        PolicyKind::RegDram, PolicyKind::RegMutex,
                        PolicyKind::FineReg};
                    continue;
                }
                const auto kind = parsePolicyName(name);
                if (!kind)
                    return fail("unknown policy '" + name + "'");
                options.policies.push_back(*kind);
            }
            if (options.policies.empty())
                return fail("--policy selected nothing");
        } else if (arg == "--scale") {
            if (!number(i, options.gridScale))
                return fail(bad);
            if (options.gridScale <= 0.0)
                return fail("--scale must be positive");
        } else if (arg == "--jobs") {
            if (!number(i, options.jobs))
                return fail(bad);
            if (options.jobs == 0)
                return fail("--jobs must be positive");
        } else if (arg == "--sms") {
            if (!number(i, options.config.numSms))
                return fail(bad);
            if (options.config.numSms == 0)
                return fail("--sms must be positive");
        } else if (arg == "--acrf" || arg == "--pcrf") {
            unsigned kb = 0;
            if (!number(i, kb))
                return fail(bad);
            if (kb == 0)
                return fail(arg + " must be positive KB");
            if (arg == "--acrf") {
                policy.acrfBytes = kb * 1024ull;
                acrf_set = true;
            } else {
                policy.pcrfBytes = kb * 1024ull;
                pcrf_set = true;
            }
        } else if (arg == "--srp-ratio") {
            if (!number(i, policy.srpRatio))
                return fail(bad);
            if (policy.srpRatio < 0.0 || policy.srpRatio >= 1.0)
                return fail("--srp-ratio must be in [0, 1)");
        } else if (arg == "--growth-factor") {
            if (!number(i, policy.pendingGrowthFactor))
                return fail(bad);
            if (policy.pendingGrowthFactor < 0.0)
                return fail("--growth-factor must be >= 0");
        } else if (arg == "--sched") {
            const auto value = need_value(i);
            if (!value)
                return fail("--sched needs gto or lrr");
            ++i;
            if (*value == "gto")
                options.config.sm.sched = SchedKind::GTO;
            else if (*value == "lrr")
                options.config.sm.sched = SchedKind::LRR;
            else
                return fail("--sched must be gto or lrr");
        } else if (arg == "--seed") {
            if (!number(i, options.config.seed))
                return fail(bad);
        } else if (arg == "--max-cycles") {
            if (!number(i, options.config.maxCycles))
                return fail(bad);
            if (options.config.maxCycles == 0)
                return fail("--max-cycles must be positive");
        } else if (arg == "--audit-interval") {
            if (!number(i, verify.auditInterval))
                return fail(bad);
        } else if (arg == "--audit-edge-every") {
            if (!number(i, verify.auditEdgeEvery))
                return fail(bad);
        } else if (arg == "--idle-skip") {
            const auto value = need_value(i);
            if (!value)
                return fail("--idle-skip needs scan or step");
            ++i;
            if (*value == "scan")
                options.config.idleSkip = IdleSkipMode::Scan;
            else if (*value == "step")
                options.config.idleSkip = IdleSkipMode::StepEveryCycle;
            else
                return fail("--idle-skip must be scan or step");
        } else if (arg == "--watchdog-cycles") {
            if (!number(i, verify.watchdogCycles))
                return fail(bad);
        } else if (arg == "--fault-seed") {
            if (!number(i, verify.fault.seed))
                return fail(bad);
        } else if (arg == "--fault-dram" || arg == "--fault-pcrf" ||
                   arg == "--fault-bitvec") {
            double prob = 0.0;
            if (!number(i, prob))
                return fail(bad);
            if (prob < 0.0 || prob > 1.0)
                return fail(arg + " must be in [0, 1]");
            if (arg == "--fault-dram")
                verify.fault.dramDelayProb = prob;
            else if (arg == "--fault-pcrf")
                verify.fault.pcrfFullProb = prob;
            else
                verify.fault.bitvecMissProb = prob;
        } else if (arg == "--job-timeout-ms") {
            if (!number(i, verify.wallTimeoutMs))
                return fail(bad);
            if (verify.wallTimeoutMs < 0.0)
                return fail("--job-timeout-ms must be >= 0");
        } else if (arg == "--resume") {
            const auto value = need_value(i);
            if (!value)
                return fail("--resume needs a journal path");
            ++i;
            options.resumePath = *value;
        } else {
            return fail("unknown flag '" + arg + "' (see --help)");
        }
    }

    // FineReg's split must add up to the register file: one given side
    // sizes the other, and a given pair must already agree.
    const std::uint64_t rf = options.config.sm.regFileBytes;
    if (acrf_set && pcrf_set) {
        if (policy.acrfBytes + policy.pcrfBytes != rf)
            return fail("--acrf + --pcrf must equal the " +
                        std::to_string(rf / 1024) + " KB register file");
    } else if (acrf_set || pcrf_set) {
        const std::uint64_t given =
            acrf_set ? policy.acrfBytes : policy.pcrfBytes;
        if (given >= rf)
            return fail(std::string(acrf_set ? "--acrf" : "--pcrf") +
                        " must be smaller than the register file");
        (acrf_set ? policy.pcrfBytes : policy.acrfBytes) = rf - given;
    }

    ParseResult result;
    result.options = std::move(options);
    return result;
}

std::optional<double>
benchScaleOverride(std::string &error)
{
    const char *env = std::getenv("FINEREG_BENCH_SCALE");
    if (!env)
        return std::nullopt;
    const std::optional<double> scale = parseNumber<double>(env);
    if (!scale || *scale <= 0.0) {
        error = std::string("FINEREG_BENCH_SCALE='") + env +
                "' is not a positive number";
        return std::nullopt;
    }
    return scale;
}

std::string
cliUsage()
{
    return "finereg_sim — run the FineReg GPU simulator\n"
           "\n"
           "usage: finereg_sim [flags]\n"
           "  --app NAME[,..]     suite apps to run (default: all 18)\n"
           "  --policy NAME[,..]  baseline|vt|regdram|regmutex|finereg|all\n"
           "                      (default: baseline,finereg)\n"
           "  --scale X           grid scale factor (default 1.0)\n"
           "  --jobs N            parallel simulation jobs (default:\n"
           "                      FINEREG_JOBS env, then hardware threads)\n"
           "  --sms N             number of SMs (default 16)\n"
           "  --acrf KB           FineReg ACRF size (PCRF = RF - ACRF)\n"
           "  --pcrf KB           FineReg PCRF size (ACRF = RF - PCRF); with\n"
           "                      both flags the sizes must add up to the RF\n"
           "  --srp-ratio X       RegMutex shared-pool fraction\n"
           "  --growth-factor X   pending-growth damper\n"
           "  --sched gto|lrr     warp scheduler (default gto)\n"
           "  --unified-memory    pool PCRF/shmem/L1 (Sec. VI-G3)\n"
           "  --seed N            simulation seed\n"
           "  --max-cycles N      safety cap\n"
           "  --audit-interval N  run the invariant auditor every N cycles\n"
           "                      (0 = off, default)\n"
           "  --audit-edge-every N  audit every Nth CTA state-transition\n"
           "                      edge (0 = auto: every edge in Debug,\n"
           "                      every 64th in Release; interval 1 always\n"
           "                      audits every edge)\n"
           "  --idle-skip MODE    idle-cycle skipper: scan (jump to the\n"
           "                      next warp or policy wake, default) or\n"
           "                      step (step every cycle, the reference).\n"
           "                      Both give the same output, except\n"
           "                      VT+RegMutex depletion cycles with a\n"
           "                      small shared pool\n"
           "  --watchdog-cycles N deadlock watchdog threshold (0 = off,\n"
           "                      default 2000000)\n"
           "  --fault-seed N      enable deterministic fault injection\n"
           "                      (0 = off, default)\n"
           "  --fault-dram P      injected DRAM-delay probability\n"
           "  --fault-pcrf P      injected PCRF-full probability\n"
           "  --fault-bitvec P    injected bit-vector-cache-miss probability\n"
           "  --job-timeout-ms MS wall-clock budget per run; a run that\n"
           "                      exceeds it fails with a timeout error\n"
           "                      (exit 3; 0 = off, default)\n"
           "  --resume FILE       journal completed jobs to FILE (created\n"
           "                      if missing) and replay jobs already\n"
           "                      recorded there instead of re-running;\n"
           "                      failed and timed-out jobs re-run\n"
           "  --csv               CSV output (one row per run)\n"
           "  --diff-check        diff every run's architectural end state\n"
           "                      against the reference executor\n"
           "  --list-apps         print the benchmark suite and exit\n"
           "  --verbose           report each run's wall time on stderr\n"
           "  --help              this text\n";
}

} // namespace finereg
