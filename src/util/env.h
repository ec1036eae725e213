#pragma once

// Strict parsing for count knobs, from environment variables such as
// GRUNT_BENCH_THREADS or from command-line flags such as --seed. A typo'd
// GRUNT_BENCH_THREADS silently falling back to hardware_concurrency once
// cost a whole perf-comparison run; these helpers reject garbage loudly
// instead.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace grunt::util {

/// Thrown when an environment variable or a command-line flag holds
/// something other than what its consumer documented. The message names the
/// knob, the offending text, and the accepted range.
class EnvError : public std::runtime_error {
 public:
  explicit EnvError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses `text` (the value of knob `name`, used only for error messages)
/// as a plain decimal integer in [min, max]. Leading/trailing whitespace,
/// empty strings, signs, hex/octal prefixes, trailing garbage, overflow and
/// values outside [min, max] all throw EnvError — no silent fallback.
std::uint64_t ParseDecimal(const char* name, const char* text,
                           std::uint64_t min, std::uint64_t max);

/// getenv(name): unset or empty returns `fallback`; anything else goes
/// through ParseDecimal over [1, max].
std::uint64_t PositiveEnvOr(const char* name, std::uint64_t fallback,
                            std::uint64_t max);

}  // namespace grunt::util
