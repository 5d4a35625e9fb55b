/**
 * @file
 * finereg_chaos — the kill-and-resume soak. Kills a journaled policy
 * sweep mid-flight for a number of rounds, resumes it from the journal,
 * and exits non-zero unless the final merged results are bit-identical to
 * a clean serial run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_options.hh"
#include "verify/chaos.hh"

using namespace finereg;

namespace
{

const char *kUsage =
    "usage: finereg_chaos [options]\n"
    "\n"
    "Kills a journaled policy sweep mid-flight, resumes it from the\n"
    "journal, and verifies the resumed results match a clean serial run\n"
    "bit for bit. Exits 1 on any divergence.\n"
    "\n"
    "  --rounds N        killed-and-resumed rounds before the final full\n"
    "                    resume (default 2)\n"
    "  --jobs N          worker threads for the journaled rounds (default 4)\n"
    "  --grid-scale F    grid scale for every run (default 0.04)\n"
    "  --kill-delay MS   delay before the first round's kill; round r\n"
    "                    waits (r + 1) times this (default 50)\n"
    "  --journal PATH    journal file for the soak (default\n"
    "                    chaos.sweep.jsonl; deleted at start)\n"
    "  --help            this text\n";

bool
parseArgs(const std::vector<std::string> &args, ChaosOptions &opts,
          bool &help, std::string &error)
{
    // Parse the value after flag args[i] into @p out and step i past it.
    auto number = [&]<typename T>(std::size_t &i, T &out) {
        const auto parsed = i + 1 < args.size()
                                ? parseNumber<T>(args[i + 1])
                                : std::nullopt;
        if (!parsed) {
            error = args[i] + " requires a numeric value";
            return false;
        }
        out = *parsed;
        ++i;
        return true;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        bool ok = true;
        if (arg == "--help") {
            help = true;
        } else if (arg == "--rounds") {
            ok = number(i, opts.rounds);
        } else if (arg == "--jobs") {
            ok = number(i, opts.jobs);
        } else if (arg == "--grid-scale") {
            ok = number(i, opts.gridScale);
        } else if (arg == "--kill-delay") {
            ok = number(i, opts.killDelayMs);
        } else if (arg == "--journal") {
            if (i + 1 >= args.size()) {
                error = arg + " requires a value";
                return false;
            }
            opts.journalPath = args[++i];
        } else {
            error = "unknown option " + arg;
            return false;
        }
        if (!ok)
            return false;
    }
    if (opts.gridScale <= 0.0 || opts.killDelayMs < 0.0) {
        error = "--grid-scale must be positive and --kill-delay >= 0";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    ChaosOptions options;
    bool help = false;
    std::string error;
    if (!parseArgs(args, options, help, error)) {
        std::fprintf(stderr, "error: %s\n\n%s", error.c_str(), kUsage);
        return 2;
    }
    if (help) {
        std::fputs(kUsage, stdout);
        return 0;
    }

    std::fprintf(stderr,
                 "info: kill-and-resume soak: rounds=%u jobs=%u "
                 "grid-scale=%g journal=%s\n",
                 options.rounds, options.jobs, options.gridScale,
                 options.journalPath.c_str());

    const ChaosReport report = runChaosSoak(options);
    std::printf("%s\n", report.summary().c_str());
    return report.passed ? 0 : 1;
}
