#pragma once

// Strict environment-variable parsing for count knobs such as
// GRUNT_BENCH_THREADS. A typo'd GRUNT_BENCH_THREADS silently falling back
// to hardware_concurrency once cost a whole perf-comparison run; these
// helpers reject garbage loudly instead.

#include <stdexcept>
#include <string>

namespace grunt::util {

/// Thrown when an environment variable holds something other than what its
/// consumer documented. The message names the variable, the offending text,
/// and the accepted range.
class EnvError : public std::runtime_error {
 public:
  explicit EnvError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses `text` (the value of environment variable `name`, used only for
/// error messages) as a strictly positive decimal integer in [1, max].
/// Leading/trailing whitespace, empty strings, signs, hex/octal prefixes,
/// trailing garbage, zero, negatives, and values above `max` all throw
/// EnvError — no silent fallback.
unsigned long ParsePositiveEnv(const char* name, const char* text,
                               unsigned long max);

/// getenv(name): unset or empty returns `fallback`; anything else goes
/// through ParsePositiveEnv.
unsigned long PositiveEnvOr(const char* name, unsigned long fallback,
                            unsigned long max);

}  // namespace grunt::util
