#include "simcore/logging.hpp"

#include <cstdio>
#include <cstdlib>

namespace vpm::sim {

namespace {

LogLevel gLevel = LogLevel::Warn;

void
vlogTo(std::FILE *stream, const char *tag, const char *fmt, std::va_list ap)
{
    std::fprintf(stream, "%s: ", tag);
    std::vfprintf(stream, fmt, ap);
    std::fputc('\n', stream);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    gLevel = level;
}

LogLevel
logLevel()
{
    return gLevel;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vlogTo(stderr, "panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vlogTo(stderr, "fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (gLevel < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vlogTo(stderr, "warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (gLevel < LogLevel::Info)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vlogTo(stdout, "info", fmt, ap);
    va_end(ap);
}

void
debug(const char *fmt, ...)
{
    if (gLevel < LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vlogTo(stdout, "debug", fmt, ap);
    va_end(ap);
}

} // namespace vpm::sim
