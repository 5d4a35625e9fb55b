/**
 * @file
 * finereg_diff — differential correctness driver. Generates random kernels
 * (property-based, seeded), executes each on the untimed architectural
 * reference, then diffs the end state the cycle simulator produces under
 * every register-management policy. Any mismatch is minimized by greedy
 * shrinking and printed with a one-line repro command.
 *
 * --self-check flips the PolicyConfig::dropLiveReg test hook so a FineReg
 * swap deliberately drops a live register, and asserts the oracle catches
 * it — guarding against the harness rotting into a rubber stamp.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/cli_options.hh"
#include "core/parallel_runner.hh"
#include "ref/diff_oracle.hh"
#include "ref/kernel_gen.hh"

using namespace finereg;

namespace
{

struct DiffOptions
{
    unsigned cases = 50;
    std::uint64_t seed = 1;
    bool haveCaseSeed = false;
    std::uint64_t caseSeed = 0;
    std::vector<PolicyKind> policies; ///< empty = all five
    unsigned jobs = 0;
    unsigned sms = 1;
    std::uint64_t acrfKb = 64;
    std::uint64_t pcrfKb = 192;
    bool selfCheck = false;
    bool verbose = false;
    bool help = false;
};

const char *kUsage =
    "usage: finereg_diff [options]\n"
    "\n"
    "Checks that the cycle simulator's architectural end state matches the\n"
    "untimed reference executor on randomly generated kernels.\n"
    "\n"
    "  --cases N        generated kernels to check (default 50)\n"
    "  --seed S         base seed: a number, or any string (hashed), so CI\n"
    "                   can pass the git SHA directly\n"
    "  --case-seed S    replay exactly one case and print its kernel\n"
    "  --policy LIST    baseline|vt|regdram|regmutex|finereg|all\n"
    "                   (default: all)\n"
    "  --jobs N         parallel case jobs (default: FINEREG_JOBS env,\n"
    "                   then hardware threads)\n"
    "  --sms N          SMs in the checked config (default 1, maximizing\n"
    "                   CTA-switch pressure)\n"
    "  --acrf KB        FineReg ACRF size (default 64)\n"
    "  --pcrf KB        FineReg PCRF size (default 192)\n"
    "  --self-check     break the liveness mask on purpose (FineReg drops\n"
    "                   a live register at swaps) and require the oracle\n"
    "                   to catch it with a minimized counterexample\n"
    "  --verbose        per-case progress\n"
    "  --help           this text\n";

/** Parse a seed: plain/hex number, else FNV-1a of the string (git SHAs). */
std::uint64_t
parseSeed(const std::string &text)
{
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 0);
    if (end && *end == '\0' && end != text.c_str())
        return value;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

bool
parseArgs(const std::vector<std::string> &args, DiffOptions &opts,
          std::string &error)
{
    auto need_value = [&](std::size_t i) {
        if (i + 1 >= args.size()) {
            error = args[i] + " requires a value";
            return false;
        }
        return true;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help") {
            opts.help = true;
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "--self-check") {
            opts.selfCheck = true;
        } else if (arg == "--cases") {
            if (!need_value(i))
                return false;
            opts.cases = static_cast<unsigned>(
                std::strtoul(args[++i].c_str(), nullptr, 0));
        } else if (arg == "--seed") {
            if (!need_value(i))
                return false;
            opts.seed = parseSeed(args[++i]);
        } else if (arg == "--case-seed") {
            if (!need_value(i))
                return false;
            opts.haveCaseSeed = true;
            opts.caseSeed = parseSeed(args[++i]);
        } else if (arg == "--jobs") {
            if (!need_value(i))
                return false;
            opts.jobs = static_cast<unsigned>(
                std::strtoul(args[++i].c_str(), nullptr, 0));
        } else if (arg == "--sms") {
            if (!need_value(i))
                return false;
            opts.sms = static_cast<unsigned>(
                std::strtoul(args[++i].c_str(), nullptr, 0));
        } else if (arg == "--acrf") {
            if (!need_value(i))
                return false;
            opts.acrfKb = std::strtoull(args[++i].c_str(), nullptr, 0);
        } else if (arg == "--pcrf") {
            if (!need_value(i))
                return false;
            opts.pcrfKb = std::strtoull(args[++i].c_str(), nullptr, 0);
        } else if (arg == "--policy") {
            if (!need_value(i))
                return false;
            std::string list = args[++i];
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = list.find(',', pos);
                const std::string name =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                pos = comma == std::string::npos ? comma : comma + 1;
                if (name == "all") {
                    opts.policies.clear();
                    break;
                }
                const auto kind = parsePolicyName(name);
                if (!kind) {
                    error = "unknown policy '" + name + "'";
                    return false;
                }
                opts.policies.push_back(*kind);
            }
        } else {
            error = "unknown flag '" + arg + "'";
            return false;
        }
    }
    if (opts.cases == 0) {
        error = "--cases must be positive";
        return false;
    }
    return true;
}

GpuConfig
diffConfig(const DiffOptions &opts)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = opts.sms;
    config.policy.acrfBytes = opts.acrfKb * 1024;
    config.policy.pcrfBytes = opts.pcrfKb * 1024;
    if (opts.selfCheck)
        config.policy.dropLiveReg = 1;
    return config;
}

GenOptions
genOptions(const DiffOptions &opts)
{
    GenOptions gen;
    // The broken-liveness check must observe every register, otherwise the
    // dropped one might be legitimately dead by the time it is read.
    gen.observeAllRegs = opts.selfCheck;
    return gen;
}

std::string
reproCommand(const DiffOptions &opts, std::uint64_t case_seed)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "tools/finereg_diff --case-seed 0x%" PRIx64
                  " --sms %u --acrf %" PRIu64 " --pcrf %" PRIu64 "%s",
                  case_seed, opts.sms, opts.acrfKb, opts.pcrfKb,
                  opts.selfCheck ? " --self-check" : "");
    std::string cmd = buf;
    if (!opts.policies.empty()) {
        cmd += " --policy ";
        for (std::size_t i = 0; i < opts.policies.size(); ++i) {
            if (i)
                cmd += ",";
            cmd += policyKindName(opts.policies[i]);
        }
    }
    return cmd;
}

DiffOracle::Report
runCase(std::uint64_t case_seed, const DiffOptions &opts,
        const GpuConfig &config)
{
    const KernelSpec spec = generateKernelSpec(case_seed, genOptions(opts));
    const auto kernel = spec.build();
    return DiffOracle::checkAllPolicies(*kernel, config, opts.policies);
}

/**
 * Shrink the failing case and print seed, minimized kernel, and repro
 * command to stderr (the format test_fuzz-style harnesses rely on).
 */
void
reportFailure(std::uint64_t case_seed, const DiffOracle::Report &report,
              const DiffOptions &opts, const GpuConfig &config)
{
    std::fprintf(stderr, "FAIL: end state diverged for case seed 0x%" PRIx64
                         "\n%s",
                 case_seed, report.toString().c_str());

    std::fprintf(stderr, "minimizing counterexample...\n");
    const KernelSpec minimized = minimizeSpec(
        generateKernelSpec(case_seed, genOptions(opts)),
        [&](const KernelSpec &cand) {
            const auto kernel = cand.build();
            return !DiffOracle::checkAllPolicies(*kernel, config,
                                                 opts.policies)
                        .pass();
        },
        150);

    const auto kernel = minimized.build();
    std::fprintf(stderr, "minimized kernel: %s\n%s",
                 minimized.describe().c_str(), kernel->toString().c_str());
    std::fprintf(stderr, "repro: %s\n",
                 reproCommand(opts, case_seed).c_str());
}

int
runSingleCase(const DiffOptions &opts, const GpuConfig &config)
{
    const KernelSpec spec =
        generateKernelSpec(opts.caseSeed, genOptions(opts));
    const auto kernel = spec.build();
    std::printf("case %s\n%s", spec.describe().c_str(),
                kernel->toString().c_str());

    const DiffOracle::Report report =
        DiffOracle::checkAllPolicies(*kernel, config, opts.policies);
    std::printf("%s", report.toString().c_str());
    if (!report.pass() && !opts.selfCheck)
        reportFailure(opts.caseSeed, report, opts, config);
    if (opts.selfCheck)
        return report.pass() ? 1 : 0;
    return report.pass() ? 0 : 1;
}

int
runSweep(const DiffOptions &opts, const GpuConfig &config)
{
    // Fan the cases across the runner; each job stores its full report in
    // its own slot and returns a summary SimResult for ordering/accounting.
    std::vector<DiffOracle::Report> reports(opts.cases);
    std::vector<ParallelRunner::Job> jobs;
    jobs.reserve(opts.cases);
    for (unsigned i = 0; i < opts.cases; ++i) {
        const std::uint64_t case_seed =
            opts.seed + 0x9e3779b97f4a7c15ull * i;
        jobs.push_back([case_seed, i, &reports, &opts, &config] {
            reports[i] = runCase(case_seed, opts, config);
            SimResult summary;
            summary.kernelName = "case-" + std::to_string(i);
            summary.failed = !reports[i].pass();
            return summary;
        });
    }

    ParallelRunner runner(opts.jobs);
    if (opts.verbose) {
        std::fprintf(stderr, "info: %u cases x %zu policies with %u jobs\n",
                     opts.cases,
                     opts.policies.empty() ? 5 : opts.policies.size(),
                     runner.jobs());
    }
    runner.run(std::move(jobs));

    unsigned failures = 0;
    std::uint64_t first_bad_seed = 0;
    const DiffOracle::Report *first_bad = nullptr;
    for (unsigned i = 0; i < opts.cases; ++i) {
        if (!reports[i].pass()) {
            ++failures;
            if (!first_bad) {
                first_bad = &reports[i];
                first_bad_seed = opts.seed + 0x9e3779b97f4a7c15ull * i;
            }
        }
    }

    if (opts.selfCheck) {
        // Here a divergence is the expected outcome: the liveness mask is
        // deliberately broken, and the oracle must notice.
        if (!first_bad) {
            std::fprintf(stderr,
                         "FAIL: self-check found no divergence in %u cases "
                         "— the oracle would miss a liveness bug (did any "
                         "case actually swap CTAs?)\n",
                         opts.cases);
            return 1;
        }
        const KernelSpec minimized = minimizeSpec(
            generateKernelSpec(first_bad_seed, genOptions(opts)),
            [&](const KernelSpec &cand) {
                const auto kernel = cand.build();
                return !DiffOracle::checkAllPolicies(*kernel, config,
                                                     opts.policies)
                            .pass();
            },
            150);
        std::printf("self-check: broken liveness mask caught in %u/%u "
                    "cases; minimized counterexample has %u instructions "
                    "(%s)\n",
                    failures, opts.cases, minimized.instrCount(),
                    minimized.describe().c_str());
        std::printf("repro: %s\n",
                    reproCommand(opts, first_bad_seed).c_str());
        return 0;
    }

    if (first_bad) {
        reportFailure(first_bad_seed, *first_bad, opts, config);
        std::fprintf(stderr, "finereg_diff: %u/%u cases diverged\n",
                     failures, opts.cases);
        return 1;
    }
    std::printf("finereg_diff: %u cases x %zu policies: all end states "
                "match the reference\n",
                opts.cases,
                opts.policies.empty() ? 5 : opts.policies.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    DiffOptions opts;
    std::string error;
    if (!parseArgs({argv + 1, argv + argc}, opts, error)) {
        std::fprintf(stderr, "error: %s\n\n%s", error.c_str(), kUsage);
        return 2;
    }
    if (opts.help) {
        std::printf("%s", kUsage);
        return 0;
    }
    setVerbose(opts.verbose);

    const GpuConfig config = diffConfig(opts);
    if (opts.haveCaseSeed)
        return runSingleCase(opts, config);
    return runSweep(opts, config);
}
