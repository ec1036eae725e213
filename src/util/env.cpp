#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace grunt::util {

std::uint64_t ParseDecimal(const char* name, const char* text,
                           std::uint64_t min, std::uint64_t max) {
  const std::string value = text == nullptr ? "" : text;
  const auto fail = [&](const char* why) {
    throw EnvError(std::string(name) + "=\"" + value + "\": " + why +
                   " (expected an integer in [" + std::to_string(min) +
                   ", " + std::to_string(max) + "])");
  };
  if (value.empty()) fail("empty value");
  // std::strtoull accepts leading whitespace, signs, and hex prefixes; a
  // count knob should be plain digits and nothing else.
  for (const char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) fail("not a number");
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (errno == ERANGE) fail("overflows");
  if (parsed < min || parsed > max) fail("out of range");
  return parsed;
}

std::uint64_t PositiveEnvOr(const char* name, std::uint64_t fallback,
                            std::uint64_t max) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  return ParseDecimal(name, text, 1, max);
}

}  // namespace grunt::util
