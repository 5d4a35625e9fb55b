/**
 * @file
 * Error and status reporting helpers, following the gem5 fatal/panic split:
 * panic() flags simulator bugs (aborts), fatal() flags user errors (exits),
 * warn()/inform() report conditions without stopping the simulation.
 */

#ifndef FINEREG_COMMON_LOG_HH
#define FINEREG_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace finereg
{

namespace log_detail
{

/** Concatenate a variadic argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace log_detail

/** Enable/disable inform() output; a driver's --verbose turns it on. */
void setVerbose(bool verbose);
bool verbose();

/** Report an internal simulator bug and abort. */
#define FINEREG_PANIC(...) \
    ::finereg::log_detail::panicImpl(__FILE__, __LINE__, \
        ::finereg::log_detail::concat(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define FINEREG_FATAL(...) \
    ::finereg::log_detail::fatalImpl(__FILE__, __LINE__, \
        ::finereg::log_detail::concat(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
#define FINEREG_WARN(...) \
    ::finereg::log_detail::warnImpl(::finereg::log_detail::concat(__VA_ARGS__))

/** Report normal operating status on stderr, as warn() does, so it never
 * mixes into a driver's stdout report (suppressed when verbose is off). */
#define FINEREG_INFORM(...) \
    ::finereg::log_detail::informImpl(::finereg::log_detail::concat(__VA_ARGS__))

} // namespace finereg

#endif // FINEREG_COMMON_LOG_HH
