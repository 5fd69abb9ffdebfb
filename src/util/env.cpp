#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace kato::util {

std::optional<std::uint64_t> parse_decimal(std::string_view s) {
  // from_chars into an unsigned type takes digits only (no whitespace, no
  // sign) and reports overflow instead of wrapping.
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size())
    return std::nullopt;
  return v;
}

const char* env_raw(const char* name) { return std::getenv(name); }

void env_warn(const char* name, const char* value, const char* want,
              const char* fallback) {
  // Function-local: the boot hooks call this during static initialization.
  static std::mutex mu;
  static std::set<std::string, std::less<>> warned;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!warned.emplace(name).second) return;
  }
  std::fprintf(stderr, "%s: ignoring unusable value '%s' (want %s); %s\n",
               name, value, want, fallback);
}

std::optional<std::uint64_t> env_count(const char* name, std::uint64_t max) {
  const char* value = env_raw(name);
  if (value == nullptr) return std::nullopt;
  const auto n = parse_decimal(value);
  if (!n || *n == 0) {
    env_warn(name, value, "a positive decimal integer", "using the default");
    return std::nullopt;
  }
  return std::min(*n, max);
}

std::optional<std::string> env_path(const char* name) {
  const char* value = env_raw(name);
  if (value == nullptr) return std::nullopt;
  const std::string_view s(value);
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  if (s.empty() || space(s.front()) || space(s.back())) {
    env_warn(name, value, "a path without surrounding whitespace",
             "feature disabled");
    return std::nullopt;
  }
  return std::string(s);
}

}  // namespace kato::util
