// Shared Byzantine output-mutation logic for the live transports.
//
// The lockstep kernel applies ByzantineEvents inline in its send phase; the
// live runtime has two independent fan-out sites (the in-process router's
// dispatch and the socket endpoint's per-link encoder).  Both delegate the
// copy synthesis to this planner so the semantics stay identical to the
// kernel's, receiver by receiver:
//
//   * Silence suppresses the copy (empty result);
//   * Lie / Equivocate replace the payload's primary value field via
//     Message::mutated() — certificates, signer ids, and stamps are out of
//     reach, modelling unforgeable signatures;
//   * Replay substitutes the liar's own stale-round payload, stamped fresh;
//   * Forge adds an EXTRA copy claiming the victim's id, with `origin` set
//     to the liar so the merged trace stays attributable.
//
// Self-delivery never passes through a transport (the round driver hands
// itself its own copy inline), so — exactly as in the kernel — a liar's
// own state is never poisoned by its lies.
//
// Thread-safety: none.  Each transport calls its own planner from one thread
// at a time (the router under its mutex; the endpoint's dispatching driver).

#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/process_set.hpp"
#include "common/types.hpp"
#include "sim/byzantine.hpp"
#include "sim/message.hpp"

namespace indulgence {

class ByzantinePlanner {
 public:
  ByzantinePlanner() = default;
  explicit ByzantinePlanner(const std::vector<ByzantineInjection>& plan);

  bool active() const { return !plan_.empty(); }

  /// Every distinct liar in the plan (for trace stamping).
  const ProcessSet& liars() const { return liars_; }

  /// Remember `sender`'s round-`round` broadcast payload — the replay
  /// events' source material.  Call once per dispatch, before copies_for.
  void note_send(ProcessId sender, Round round, const MessagePtr& payload);

  /// One copy as it should reach a receiver: `sender` is the claimed id,
  /// `origin` the actual emitter (-1 = honest / unforged).
  struct Copy {
    ProcessId sender = -1;
    ProcessId origin = -1;
    MessagePtr payload;
  };

  /// The copies `receiver` gets of `sender`'s round-`round` broadcast:
  /// empty when silenced, the (possibly mutated) primary copy plus any
  /// forged extras otherwise.  Honest (sender, round) pairs yield exactly
  /// the input payload.
  std::vector<Copy> copies_for(ProcessId sender, Round round,
                               ProcessId receiver,
                               const MessagePtr& payload) const;

 private:
  std::map<std::pair<ProcessId, Round>, std::vector<ByzantineEvent>> plan_;
  std::map<std::pair<ProcessId, Round>, MessagePtr> history_;
  ProcessSet liars_;
};

}  // namespace indulgence
