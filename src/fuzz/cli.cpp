#include "fuzz/cli.hpp"

#include <cstdlib>
#include <ostream>

namespace indulgence {

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // std::from_chars for double is unreliable across libstdc++ versions;
  // strtod + full-consumption check gives the same strictness.
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

void driver_usage(std::ostream& os) {
  os << "usage: fuzz_consensus [options]\n"
        "  --seed S       base seed for schedule generation (default 1)\n"
        "  --budget N     random runs per target (default 2000)\n"
        "  --algo NAME    fuzz one target only (default: all; see --list)\n"
        "  --n N --t T    system size (default n=3 t=1)\n"
        "  --byz B        schedule mode: give B < n/3 processes a Byzantine\n"
        "                 lie budget (equivocate/lie/forge/replay/silence);\n"
        "                 crash draws shrink to t-B, A_{t+2}^auth must\n"
        "                 survive, crash-only algorithms are fair game\n"
        "  --no-shrink    keep the first find as generated\n"
        "  --live         fuzz randomized LiveOptions over real threads\n"
        "                 (default budget 25 runs per target)\n"
        "  --socket       like --live, but over real Unix-domain sockets\n"
        "                 with seeded wire chaos (default budget 10)\n"
        "  --groups G     --socket: run G independent groups of the target\n"
        "                 per draw over one shared multiplexed fabric,\n"
        "                 judging every group's merged trace (default 1)\n"
        "  --sync KIND    live/socket: round synchronizer — lockstep,\n"
        "                 pacemaker, or faststep (default lockstep);\n"
        "                 non-lockstep draws also inject transient\n"
        "                 synchronizer-state corruptions\n"
        "  --wall SECS    stop after SECS wall-clock seconds (any mode)\n"
        "  --samples DIR  live mode: write the deterministic corpus-seed\n"
        "                 repros (loss, crash/partition) to DIR and exit\n"
        "  --out DIR      write each minimized find to DIR/<target>.sched\n"
        "  --replay FILE  re-judge one .sched repro file and exit\n"
        "  --corpus DIR   replay every *.sched in DIR and exit\n"
        "  --list         list registered targets and exit\n"
        "Exit status 0 iff every verdict matched expectations;\n"
        "2 on usage errors.\n";
}

std::string command_line(const DriverOptions& opts) {
  const DriverOptions defaults;
  std::string line = "fuzz_consensus";
  if (opts.live) line += opts.socket ? " --socket" : " --live";
  line += " --algo " + opts.algo;
  if (opts.byz != defaults.byz) line += " --byz " + std::to_string(opts.byz);
  if (opts.n != defaults.n || opts.t != defaults.t) {
    line += " --n " + std::to_string(opts.n) + " --t " + std::to_string(opts.t);
  }
  if (opts.groups != defaults.groups) {
    line += " --groups " + std::to_string(opts.groups);
  }
  if (opts.sync != defaults.sync) line += " --sync " + opts.sync;
  return line + " --seed " + std::to_string(opts.seed);
}

std::optional<DriverOptions> parse_driver_args(int argc,
                                               const char* const* argv,
                                               std::ostream& err) {
  DriverOptions opts;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      err << "fuzz_consensus: " << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  // One strict-parse step per numeric flag: diagnose and bail on anything
  // from_chars does not consume in full.
  auto numeric = [&](const char* flag, const char* text, auto& out) {
    using T = std::remove_reference_t<decltype(out)>;
    const std::optional<T> parsed = parse_number<T>(text);
    if (!parsed) {
      err << "fuzz_consensus: " << flag << " needs an integer, got '" << text
          << "'\n";
      return false;
    }
    out = *parsed;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--list") {
      opts.list = true;
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--live") {
      opts.live = true;
    } else if (arg == "--socket") {
      opts.socket = true;
      opts.live = true;  // the socket campaign is a live campaign
    } else if (arg == "--seed") {
      if (!(v = value(i)) || !numeric("--seed", v, opts.seed)) {
        return std::nullopt;
      }
    } else if (arg == "--budget") {
      if (!(v = value(i)) || !numeric("--budget", v, opts.budget)) {
        return std::nullopt;
      }
      opts.budget_set = true;
    } else if (arg == "--algo") {
      if (!(v = value(i))) return std::nullopt;
      opts.algo = v;
    } else if (arg == "--groups") {
      if (!(v = value(i)) || !numeric("--groups", v, opts.groups)) {
        return std::nullopt;
      }
    } else if (arg == "--byz") {
      if (!(v = value(i)) || !numeric("--byz", v, opts.byz)) {
        return std::nullopt;
      }
    } else if (arg == "--sync") {
      if (!(v = value(i))) return std::nullopt;
      opts.sync = v;
    } else if (arg == "--n") {
      if (!(v = value(i)) || !numeric("--n", v, opts.n)) return std::nullopt;
    } else if (arg == "--t") {
      if (!(v = value(i)) || !numeric("--t", v, opts.t)) return std::nullopt;
    } else if (arg == "--wall") {
      if (!(v = value(i))) return std::nullopt;
      const std::optional<double> secs = parse_double(v);
      if (!secs || *secs < 0) {
        err << "fuzz_consensus: --wall needs a non-negative number, got '"
            << v << "'\n";
        return std::nullopt;
      }
      opts.wall_secs = *secs;
    } else if (arg == "--out") {
      if (!(v = value(i))) return std::nullopt;
      opts.out_dir = v;
    } else if (arg == "--replay") {
      if (!(v = value(i))) return std::nullopt;
      opts.replay_file = v;
    } else if (arg == "--corpus") {
      if (!(v = value(i))) return std::nullopt;
      opts.corpus_dir = v;
    } else if (arg == "--samples") {
      if (!(v = value(i))) return std::nullopt;
      opts.samples_dir = v;
    } else {
      err << "fuzz_consensus: unknown option " << arg << "\n";
      driver_usage(err);
      return std::nullopt;
    }
  }
  if (opts.budget < 0) {
    err << "fuzz_consensus: --budget must be >= 0\n";
    return std::nullopt;
  }
  if (opts.n < 1 || opts.t < 0 || opts.t >= opts.n) {
    err << "fuzz_consensus: need n >= 1 and 0 <= t < n (got n=" << opts.n
        << " t=" << opts.t << ")\n";
    return std::nullopt;
  }
  if (opts.samples_dir && !opts.live) {
    err << "fuzz_consensus: --samples needs --live\n";
    return std::nullopt;
  }
  if (opts.groups < 1 || opts.groups > 64) {
    err << "fuzz_consensus: --groups must be in 1..64 (got " << opts.groups
        << ")\n";
    return std::nullopt;
  }
  if (opts.groups > 1 && !opts.socket) {
    err << "fuzz_consensus: --groups needs --socket (the multi-group sweep "
           "exercises the shared-fabric demux)\n";
    return std::nullopt;
  }
  if (opts.sync != "lockstep" && opts.sync != "pacemaker" &&
      opts.sync != "faststep") {
    err << "fuzz_consensus: --sync must be one of lockstep, pacemaker, "
           "faststep (got '" << opts.sync << "')\n";
    return std::nullopt;
  }
  if (opts.sync != "lockstep" && !opts.live) {
    err << "fuzz_consensus: --sync needs --live or --socket (the "
           "synchronizers only exist in the live runtime)\n";
    return std::nullopt;
  }
  if (opts.byz < 0) {
    err << "fuzz_consensus: --byz must be >= 0 (got " << opts.byz << ")\n";
    return std::nullopt;
  }
  if (3 * opts.byz >= opts.n) {
    err << "fuzz_consensus: --byz needs 3b < n (got b=" << opts.byz
        << " n=" << opts.n << ")\n";
    return std::nullopt;
  }
  if (opts.byz > opts.t) {
    err << "fuzz_consensus: --byz needs b <= t — liars count against the "
           "resilience bound (got b=" << opts.byz << " t=" << opts.t
        << ")\n";
    return std::nullopt;
  }
  if (opts.byz > 0 && opts.live) {
    err << "fuzz_consensus: --byz is a schedule-mode flag (live Byzantine "
           "injection is driven through LiveOptions)\n";
    return std::nullopt;
  }
  return opts;
}

}  // namespace indulgence
