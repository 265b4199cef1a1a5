// Command-line parsing for the fuzz_consensus driver.
//
// Lives in the library (not the driver translation unit) so malformed-input
// handling is unit-testable: every numeric flag is parsed with
// std::from_chars in the hardened parse_jobs_env style — trailing junk,
// overflow, and empty values are usage errors reported on stderr, never
// uncaught exceptions.  parse_driver_args returns nullopt on any usage
// error; the driver maps that to exit code 2.

#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace indulgence {

struct DriverOptions {
  std::uint64_t seed = 1;
  long budget = 2000;            ///< runs per target (both modes)
  std::string algo = "all";
  int n = 3;
  int t = 1;
  bool shrink = true;
  bool list = false;
  bool help = false;
  bool live = false;             ///< fuzz LiveOptions over real threads
  bool socket = false;           ///< live sweep over Unix-domain sockets
  int groups = 1;                ///< --socket: groups per run (sharded demux)
  int byz = 0;                   ///< Byzantine liar budget (schedule mode)
  std::string sync = "lockstep"; ///< round synchronizer (live/socket modes)
  double wall_secs = 0;          ///< wall-clock cap, any mode (0 = none)
  bool budget_set = false;       ///< --budget given (live mode defaults lower)
  std::optional<std::string> out_dir;
  std::optional<std::string> replay_file;
  std::optional<std::string> corpus_dir;
  std::optional<std::string> samples_dir;  ///< --live: write corpus seeds
};

/// Strict integer parsing: the whole string must be a base-10 number that
/// fits T.  Returns nullopt on empty input, trailing junk, or overflow.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) return std::nullopt;
  return value;
}

/// Same contract for floating-point flags (e.g. --wall 0.5).
std::optional<double> parse_double(std::string_view text);

void driver_usage(std::ostream& os);

/// The fuzz_consensus command that reruns the sweep `opts` describes: its
/// mode (--live or --socket), --algo, --byz, --groups and --sync where they
/// differ from their defaults, the system size (--n and --t) unless it is
/// the default n=3 t=1, then --seed.  A find's repro comment names its
/// sweep with it.
std::string command_line(const DriverOptions& opts);

/// Parses argv.  On any usage error (unknown flag, missing or malformed
/// value) prints a one-line diagnostic to `err` and returns nullopt.
std::optional<DriverOptions> parse_driver_args(int argc, const char* const* argv,
                                               std::ostream& err);

}  // namespace indulgence
