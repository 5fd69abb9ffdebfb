#pragma once

// The library's one configuration surface: every KATO_* environment
// variable is read here.  Unset means "use the default" and is silent; a
// value that does not parse as a whole (no trimming, no partial parse) is
// ignored with one stderr line per name per process:
//
//   <NAME>: ignoring unusable value '<v>' (want <what>); <fallback>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace kato::util {

/// Strict unsigned decimal: one or more ASCII digits and nothing else (no
/// sign, whitespace, '.', exponent), within uint64.  Zero is accepted.
std::optional<std::uint64_t> parse_decimal(std::string_view s);

/// Raw value of `name`, or nullptr when unset — for a grammar that lives
/// with its feature (KATO_FAULT, util::parse_fault_spec).
const char* env_raw(const char* name);

/// Print the unusable-value warning unless `name` already had one.
void env_warn(const char* name, const char* value, const char* want,
              const char* fallback);

/// parse_decimal of `name`, 0 rejected, clamped to `max`; nullopt when
/// unset or rejected.  KATO_THREADS, KATO_SEEDS, KATO_EVAL_DEADLINE_MS.
std::optional<std::uint64_t> env_count(const char* name, std::uint64_t max);

/// `name` verbatim ("-" included) when non-empty with no whitespace at
/// either edge; nullopt when unset or rejected.  KATO_STATS, KATO_TRACE,
/// KATO_RUN_LOG, KATO_NETLIST_DIR.
std::optional<std::string> env_path(const char* name);

}  // namespace kato::util
