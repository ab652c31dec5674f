/**
 * @file
 * Minimal logging and error-reporting facilities for the vpm libraries.
 *
 * Follows the gem5 discipline:
 *  - panic()  — an internal invariant was violated (a vpm bug). Aborts.
 *  - fatal()  — the user asked for something impossible (bad configuration).
 *               Exits with an error code.
 *  - warn()/inform() — status messages; never stop the run.
 *
 * Log verbosity is a process-global level so benches can silence the
 * simulator while tests can crank it up for debugging.
 */

#ifndef VPM_SIMCORE_LOGGING_HPP
#define VPM_SIMCORE_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace vpm::sim {

/** Severity levels, in increasing verbosity order. */
enum class LogLevel
{
    Silent = 0, ///< nothing but fatal/panic output
    Warn = 1,   ///< warnings only
    Info = 2,   ///< warnings + informational messages
    Debug = 3,  ///< everything, including per-event chatter
};

/** Set the process-global log level. Thread-compatible, not thread-safe. */
void setLogLevel(LogLevel level);

/** Current process-global log level. */
LogLevel logLevel();

/**
 * Report an unrecoverable internal error (a bug in vpm itself) and abort.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Per-event debug chatter; compiled in, gated by log level at runtime. */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace vpm::sim

#endif // VPM_SIMCORE_LOGGING_HPP
