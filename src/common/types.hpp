// Base vocabulary types shared by every subsystem.
//
// The paper (Dutta & Guerraoui, "The inherent price of indulgence") works in
// a round-based message-passing system Pi = {p1, ..., pn} with at most t
// crash failures.  We index processes 0..n-1 internally (the paper's p_i is
// our ProcessId i-1) and number rounds from 1, as the paper does.

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace indulgence {

/// Zero-based process index (the paper's p_{id+1}).
using ProcessId = int;

/// One-based round number.  Round 0 denotes "before round 1" (initial state).
using Round = int;

/// A consensus-group identifier.  The paper's model is one group Pi; the
/// sharded runtime runs many independent groups over one transport fabric,
/// each with its own group-local ProcessIds 0..n-1.  A single-group run
/// is group 0.
using GroupId = std::int32_t;

/// Proposal / decision values.  The paper assumes the set of proposal values
/// in a run is totally ordered (Sect. 3, assumption 4); int64 satisfies this.
using Value = std::int64_t;

/// The distinguished "bottom" new-estimate value of A_{t+2} (Fig. 2).  It is
/// reserved: algorithms reject it as a proposal value.
inline constexpr Value kBottom = std::numeric_limits<Value>::min();

/// Static system parameters: n processes, at most t crashes.
struct SystemConfig {
  int n = 0;  ///< number of processes (paper requires n >= 3)
  int t = 0;  ///< resilience: maximum number of crash failures

  constexpr bool majority_correct() const { return 2 * t < n; }
  constexpr bool third_correct() const { return 3 * t < n; }

  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;

  /// Throws std::invalid_argument unless 0 <= t and n >= 3.
  void validate() const {
    if (n < 3) throw std::invalid_argument("SystemConfig: n must be >= 3");
    if (t < 0) throw std::invalid_argument("SystemConfig: t must be >= 0");
    if (t >= n) throw std::invalid_argument("SystemConfig: t must be < n");
  }
};

/// The two round-based models of the paper (Sect. 1.2).
enum class Model {
  SCS,  ///< synchronous crash-stop: crash-round messages may be lost, all
        ///< other messages arrive in the round they were sent
  ES,   ///< eventually synchronous: delays allowed before an unknown GST
        ///< round K, subject to t-resilience and reliable channels
};

inline std::string to_string(Model m) {
  return m == Model::SCS ? "SCS" : "ES";
}

/// A decision event observed at one process.
struct Decision {
  Value value = 0;
  Round round = 0;  ///< round at whose end the process decided
};

inline bool operator==(const Decision& a, const Decision& b) {
  return a.value == b.value && a.round == b.round;
}

}  // namespace indulgence
