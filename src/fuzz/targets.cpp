#include "fuzz/targets.hpp"

#include <stdexcept>

#include "consensus/floodset.hpp"
#include "consensus/floodset_early.hpp"
#include "consensus/floodset_ws.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2.hpp"
#include "core/at2_auth.hpp"
#include "core/at2_ds.hpp"
#include "fd/failure_detector.hpp"

namespace indulgence {

std::optional<std::string> consensus_violation(
    const RunResult& result, const AlgorithmInstances& instances) {
  if (auto what = agreement_or_validity_violation(result, instances)) {
    return what;
  }
  if (!result.termination) {
    return "termination failed: a correct process never decided within the "
           "round cap";
  }
  return std::nullopt;
}

namespace {

AlgorithmFactory ablated_at2(At2Options options) {
  return at2_factory(hurfin_raynal_factory(), options);
}

std::vector<FuzzTarget> make_targets() {
  std::vector<FuzzTarget> targets;
  // --- the seven real algorithms: must survive every model-valid run ----
  targets.push_back({"floodset", "FloodSet, t+1 rounds", Model::SCS, true,
                     "consensus", floodset_factory()});
  targets.push_back({"floodset-ws", "FloodSet-WS (value-set flooding)",
                     Model::SCS, true, "consensus", floodset_ws_factory()});
  targets.push_back({"floodset-early", "early-deciding FloodSet", Model::SCS,
                     true, "consensus", floodset_early_factory()});
  targets.push_back({"hr", "Hurfin-Raynal (rotating coordinator)", Model::ES,
                     true, "consensus", hurfin_raynal_factory()});
  targets.push_back({"at2", "A_{t+2} over Hurfin-Raynal", Model::ES, true,
                     "consensus", at2_factory(hurfin_raynal_factory())});
  targets.push_back({"at2-ds", "A_{<>S} (DS variant, receipt detector)",
                     Model::ES, true, "consensus",
                     at2_ds_factory(hurfin_raynal_factory(),
                                    receipt_detector_factory())});
  targets.push_back({"af2", "A_{f+2} (early-deciding indulgent)", Model::ES,
                     true, "consensus", af2_factory()});

  // --- the authenticated Byzantine-resilient variant (needs n > 3t) -----
  targets.push_back({"at2-auth", "A_{t+2}^auth (survives b < n/3 liars)",
                     Model::ES, true, "consensus", at2_auth_factory(),
                     ByzExpectation::Survives});
  // Its ablations exist only for --byz sweeps: each must be re-broken by
  // the lie class its missing mechanism defends against.
  targets.push_back({"at2-auth-notags", "A_{t+2}^auth without auth tags",
                     Model::ES, false, "consensus",
                     at2_auth_factory({.ablate_tags = true}),
                     ByzExpectation::Breaks, true});
  targets.push_back({"at2-auth-noecho",
                     "A_{t+2}^auth without echo certificates", Model::ES,
                     false, "consensus",
                     at2_auth_factory({.ablate_echo = true}),
                     ByzExpectation::Breaks, true});
  targets.push_back({"at2-auth-nodedup",
                     "A_{t+2}^auth without quorum dedup", Model::ES, false,
                     "consensus", at2_auth_factory({.ablate_dedup = true}),
                     ByzExpectation::Breaks, true});

  // --- known-broken variants: the fuzzer must rediscover each bug -------
  targets.push_back({"at2-fscheck",
                     "A_{t+2} without the |Halt| > t false-suspicion test",
                     Model::ES, false, "consensus",
                     ablated_at2({.ablate_false_suspicion_check = true})});
  targets.push_back({"at2-haltxchg", "A_{t+2} without the Halt exchange",
                     Model::ES, false, "consensus",
                     ablated_at2({.ablate_halt_exchange = true})});
  targets.push_back({"at2-haltfilter",
                     "A_{t+2} without the line-34 msgSet filter", Model::ES,
                     false, "elimination",
                     ablated_at2({.ablate_halt_filter = true})});
  targets.push_back({"at2-trunc", "the impossible A_{t+1} (Phase 1 cut short)",
                     Model::ES, false, "consensus",
                     at2_truncated_factory(hurfin_raynal_factory())});
  return targets;
}

}  // namespace

const std::vector<FuzzTarget>& fuzz_targets() {
  static const std::vector<FuzzTarget> targets = make_targets();
  return targets;
}

const FuzzTarget* find_fuzz_target(std::string_view name) {
  for (const FuzzTarget& t : fuzz_targets()) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::optional<std::string> rejection(const FuzzTarget& target,
                                     const SystemConfig& config) {
  try {
    target.factory(0, config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return std::nullopt;
}

ViolationPredicate find_check(std::string_view name) {
  if (name == "consensus") return consensus_violation;
  if (name == "elimination") return elimination_violation;
  throw std::invalid_argument("unknown check '" + std::string(name) +
                              "' (want 'consensus' or 'elimination')");
}

}  // namespace indulgence
