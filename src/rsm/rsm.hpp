// A replicated state machine on top of the consensus API — the downstream
// system the paper's introduction motivates ("in many real systems, most
// runs are actually synchronous"): replicas agree on a log of commands, one
// consensus instance (slot) per log position.
//
// Design:
//   * Slot s is an independent consensus instance whose round 1 is global
//     round s * window + 1; the default window is resolved_slot_window's
//     t + 3, read from the paper's price table (core/price.hpp).  Because
//     every replica derives slot rounds from the global round number, the
//     per-slot lock-step alignment that round-based algorithms require is
//     preserved, and slots PIPELINE: with window = 1 and the
//     failure-free-optimized A_{t+2}, a synchronous failure-free run
//     commits one command per round after a 2-round warm-up.
//   * Each round a replica broadcasts a bundle holding one entry per active
//     slot: the slot algorithm's message for a running slot, or an inline
//     DECIDE notice (slot, value) once the replica knows the slot's outcome
//     (so slow replicas always catch up).  The bundle is two flat,
//     slot-ascending vectors — running parts and notices — so a notice
//     costs 16 bytes and no allocation of its own; on the wire a notice is
//     exactly a DecideMessage part.  A receiver settles a slot with the
//     first notice it reads, in delivery order, from a bundle sent at or
//     after the slot's start.  `decide_retention` bounds how long outcomes
//     are re-broadcast; the default (forever) matches the original
//     behavior, while long-running campaigns set a finite retention so
//     per-round bundles stay O(active slots) rather than O(log length).
//   * Per-slot state lives only while a slot is open: a slot's instance and
//     our proposal for it are created when the slot starts and freed when
//     it commits.  log() and the commit rounds grow as slots start, so a
//     replica's memory follows the slots the run touched; `num_slots` caps
//     the log rather than reserving it (a slot past log().size() has not
//     started here).
//   * Command selection: every replica keeps a client-command queue.  When
//     a burst opens it hands out its commands that are neither committed
//     nor in flight (retries first, then fresh ones), one per slot, in an
//     order of its own: first the burst's slots it OWNS (slot s belongs to
//     replica s mod n, a Mencius-style rotation) in ascending order, then
//     the burst's other slots from the far end.
//     Under light load the replicas' proposals therefore land in disjoint
//     slots and each commits when its slot first decides; under
//     saturation every slot still gets several proposals and the
//     min-estimate rule picks one.  A command is proposed only by its home
//     replica and rides at most one live slot; one that loses its slot
//     returns to the pool and is re-proposed in a later burst.  A slot
//     left without a command proposes kNoOpCommand.  With slot_burst = 1
//     the order covers one slot, i.e. plain ascending order.  A live
//     client layer can replace the fixed queue with a pull-based
//     RsmCommandSource and observe commits through an RsmCommitCallback
//     (src/client builds on exactly this pair).
//
// The RSM never "decides" in the single-shot sense — drive the kernel with
// stop_on_global_decision = false and query logs afterwards.

#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consensus/consensus.hpp"
#include "core/price.hpp"

namespace indulgence {

/// Committed when a replica had nothing to propose.
inline constexpr Value kNoOpCommand = -1;

/// On the wire a no-op is the per-replica sentinel max - self (consensus
/// proposals must be comparable and non-reserved, and with a min-wins slot
/// algorithm the sentinel loses to every real command).  Classifier for log
/// readers; assumes self < 4096, far above any real group size here.
inline bool is_rsm_noop(Value v) {
  return v > std::numeric_limits<Value>::max() - 4096;
}

/// Pull-based command ingest: "the next client command for a fresh slot",
/// or nullopt when nothing is pending (the slot proposes a no-op).  Called
/// on the replica's own driver thread; implementations synchronize their
/// own state.
using RsmCommandSource = std::function<std::optional<Value>()>;

/// Commit notification, fired on the replica's driver thread as soon as
/// this replica learns a slot's outcome — including no-op outcomes and
/// commands proposed by other replicas.  Every replica reports every slot
/// it learns, so a client layer must deduplicate across replicas.
using RsmCommitCallback =
    std::function<void(int slot, Value value, Round round)>;

struct RsmOptions {
  int num_slots = 8;     ///< the most log positions to run (a cap: nothing
                         ///< is reserved for slots that never start)
  Round slot_window = 0; ///< rounds between slot starts; 0 means the
                         ///< default of resolved_slot_window
  int slot_burst = 1;    ///< slots opened together per window step: burst b
                         ///< starts slots [i*b, (i+1)*b) at round
                         ///< i*window + 1, so b commands share each bundle
                         ///< round-trip.  1 reproduces the classic one-slot
                         ///< cadence.
  Round decide_retention = 0;  ///< how many rounds after a local commit the
                               ///< DECIDE notice keeps riding the bundle;
                               ///< 0 = forever (the original behavior).
                               ///< Post-GST a laggard hears a retained
                               ///< notice within one round, so a small
                               ///< value suffices once bounds hold.
};

/// The rounds between slot starts that `options` selects for `config`:
/// `slot_window`, or when it is 0 the latest round A_{t+2} may decide in a
/// synchronous run (t + 3 from core/price.hpp), so slots never overlap.
/// RsmReplica and the client campaign's log sizing both read it.
inline Round resolved_slot_window(const RsmOptions& options,
                                  const SystemConfig& config) {
  return options.slot_window > 0
             ? options.slot_window
             : price(PriceRow::At2, config, config.t).latest();
}

/// The per-round bundle: one entry per active slot, either the running
/// slot algorithm's message or an inline DECIDE notice.  Both lists are
/// strictly slot-ascending and no slot appears in both.  On the wire a
/// notice is exactly a DecideMessage part, so the encoding and describe()
/// read as one slot-ordered map of parts.
class RsmBundleMessage final : public Message {
 public:
  struct Part {
    int slot = 0;
    MessagePtr message;
  };
  struct Notice {
    int slot = 0;
    Value value = 0;
  };

  /// Throws std::invalid_argument unless the slots are strictly ascending
  /// within each list and disjoint across them.
  RsmBundleMessage(std::vector<Part> running, std::vector<Notice> notices);

  const std::vector<Part>& running() const { return running_; }
  const std::vector<Notice>& notices() const { return notices_; }

  /// Number of slots the bundle covers (running parts plus notices).
  std::size_t size() const { return running_.size() + notices_.size(); }

  /// Calls `on_running(slot, message)` or `on_notice(slot, value)` for
  /// every entry, in ascending slot order.
  template <typename RunningFn, typename NoticeFn>
  void for_each_slot(RunningFn&& on_running, NoticeFn&& on_notice) const {
    auto r = running_.begin();
    auto d = notices_.begin();
    while (r != running_.end() || d != notices_.end()) {
      if (d == notices_.end() || (r != running_.end() && r->slot < d->slot)) {
        on_running(r->slot, r->message);
        ++r;
      } else {
        on_notice(d->slot, d->value);
        ++d;
      }
    }
  }

  /// The slot's running part, or nullptr.
  const MessagePtr* part(int slot) const;

  /// The slot's inline DECIDE notice, or nullopt.
  std::optional<Value> notice(int slot) const;

  std::string describe() const override;

 private:
  std::vector<Part> running_;
  std::vector<Notice> notices_;
};

class RsmReplica : public RoundAlgorithm {
 public:
  /// `slot_factory` builds the consensus algorithm used per slot (e.g.
  /// at2_factory(...)); `commands` is this replica's client queue.
  RsmReplica(ProcessId self, const SystemConfig& config,
             AlgorithmFactory slot_factory, std::vector<Value> commands,
             RsmOptions options = {});

  /// Live ingest: once the fixed queue drains, fresh slots pull commands
  /// from `source` instead of proposing no-ops.  A command that loses its
  /// slot re-enters this replica's local retry queue (it is NOT handed back
  /// to the source — exactly-once submission stays with the home replica).
  void set_command_source(RsmCommandSource source) {
    source_ = std::move(source);
  }

  /// Fired from record_commit for every slot outcome this replica learns.
  void set_commit_callback(RsmCommitCallback callback) {
    commit_callback_ = std::move(callback);
  }

  // --- RoundAlgorithm ------------------------------------------------------

  /// The kernel-supplied proposal becomes the front of the command queue.
  void propose(Value v) override;

  MessagePtr message_for_round(Round k) override;
  void on_round(Round k, const Delivery& delivered) override;

  /// An RSM runs for as long as the kernel drives it.
  std::optional<Value> decision() const override { return std::nullopt; }
  bool halted() const override { return false; }
  std::string name() const override { return "RSM"; }

  // --- log access ----------------------------------------------------------

  /// log()[s] holds slot s's committed command once known to this replica.
  /// The log covers the slots started so far, at most num_slots of them.
  const std::vector<std::optional<Value>>& log() const { return log_; }

  /// Number of leading slots committed at this replica (O(1): maintained
  /// incrementally so done-predicates can poll it every round).
  int committed_prefix() const { return prefix_; }

  bool all_slots_committed() const { return prefix_ == options_.num_slots; }

  /// Round at which this replica learned slot s (0 if not yet).
  Round commit_round(int slot) const {
    return slot >= 0 && slot < static_cast<int>(commit_rounds_.size())
               ? commit_rounds_[static_cast<std::size_t>(slot)]
               : 0;
  }

 private:
  /// A started, uncommitted slot: the only state a slot holds while its
  /// instance runs (freed at commit).
  struct OpenSlot {
    int slot = 0;
    Value proposal = kNoOpCommand;  ///< ours for this slot
    std::unique_ptr<RoundAlgorithm> instance;
  };

  /// One bundle delivered this round.
  struct Heard {
    ProcessId sender = -1;
    Round send_round = 0;
    const RsmBundleMessage* bundle = nullptr;
  };

  /// A committed slot whose DECIDE notice is still riding the bundle;
  /// `until` = 0 means forever.
  struct Retained {
    int slot = 0;
    Round until = 0;
  };

  /// Round 1 of slot s.  Slots in the same burst share a start round, so a
  /// burst of b commits b commands per window of rounds once warmed up.
  Round slot_start(int slot) const {
    return static_cast<Round>(slot / burst_) * window_ + 1;
  }
  int last_started_slot(Round k) const;
  /// Starts every slot due by round k (see "Command selection" above),
  /// advances started_hwm_ and grows the log to cover it.  With `settle`
  /// (the lazy start in on_round), a slot that a DECIDE notice in this
  /// round's bundles already settles is skipped and pulls no command.
  void ensure_started(Round k, bool settle = false);
  /// Reads `slot` from this round's bundles (heard_) in delivery order,
  /// counting only bundles sent at or after the slot's start.  Returns the
  /// first DECIDE notice (inline, or a running DECIDE/HALTED part) — the
  /// first-wins rule of find_decide_notice; until one shows up, appends the
  /// slot's running parts to `inner` (if given) with slot-relative send
  /// rounds.
  std::optional<Value> scan_slot(int slot, Delivery* inner) const;
  std::vector<OpenSlot>::iterator find_open(int slot);
  Value next_command();
  void record_commit(int slot, Value v, Round round);

  AlgorithmFactory slot_factory_;
  std::deque<Value> queue_;
  RsmCommandSource source_;
  RsmCommitCallback commit_callback_;
  RsmOptions options_;
  Round window_ = 1;
  int burst_ = 1;

  std::vector<std::optional<Value>> log_;  ///< index = slot, < started_hwm_
  std::vector<Round> commit_rounds_;       ///< index = slot, < started_hwm_
  std::set<Value> committed_values_;
  std::set<Value> inflight_;

  /// Started-but-uncommitted slots, ascending — the per-round working set.
  std::vector<OpenSlot> open_;
  /// Committed slots still re-broadcasting DECIDE, ascending by slot.
  std::vector<Retained> retained_;
  int started_hwm_ = 0;  ///< every slot below is started or committed
  int prefix_ = 0;       ///< cached committed_prefix()

  // Scratch reused across rounds.
  std::vector<int> round_slots_;            ///< on_round's iteration order
  std::vector<Heard> heard_;                ///< this round's bundles
  std::vector<std::optional<Value>> fresh_; ///< proposals of slots starting
  Delivery inner_;                          ///< one slot's running parts

  ProcessId self_;
  SystemConfig config_;
};

/// Factory: every replica gets the same slot algorithm and options but its
/// own command queue (commands_for(replica)).
AlgorithmFactory rsm_factory(AlgorithmFactory slot_factory,
                             std::function<std::vector<Value>(ProcessId)>
                                 commands_for,
                             RsmOptions options = {});

/// Live-ingest factory: replicas start with empty queues and pull commands
/// from per-replica sources, reporting commits through per-replica
/// callbacks.  The client workload layer (src/client) plugs in here.
AlgorithmFactory rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(ProcessId)> source_for,
    std::function<RsmCommitCallback(ProcessId)> commit_for,
    RsmOptions options = {});

/// Group-factory adaptor for the sharded runtime (`run_sharded` /
/// `ShardedNode`): every group runs the same slot algorithm and RsmOptions
/// — including the slot_burst pipelining knob — with per-(group, replica)
/// command streams.  Plugs directly into run_sharded's `factory_for`.
std::function<AlgorithmFactory(GroupId)> sharded_rsm_factory(
    AlgorithmFactory slot_factory,
    std::function<std::vector<Value>(GroupId, ProcessId)> commands_for,
    RsmOptions options = {});

/// Sharded live ingest: per-(group, replica) sources and commit callbacks.
std::function<AlgorithmFactory(GroupId)> sharded_rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(GroupId, ProcessId)> source_for,
    std::function<RsmCommitCallback(GroupId, ProcessId)> commit_for,
    RsmOptions options = {});

}  // namespace indulgence
