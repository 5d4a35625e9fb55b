#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace finereg
{

namespace
{
// The only process-global mutable state in the library. Atomic so the
// parallel runner's workers can consult it while a driver thread toggles
// it; everything else a Simulator::run touches is owned by its Gpu.
std::atomic<bool> g_verbose{false};
} // namespace

void
setVerbose(bool verbose)
{
    g_verbose.store(verbose, std::memory_order_relaxed);
}

bool
verbose()
{
    return g_verbose.load(std::memory_order_relaxed);
}

namespace log_detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (g_verbose)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace log_detail

} // namespace finereg
