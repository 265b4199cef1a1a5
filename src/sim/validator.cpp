#include "sim/validator.hpp"

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace indulgence {

namespace {

class Checker {
 public:
  explicit Checker(const RunTrace& trace) : trace_(trace) {}

  ValidationReport run() {
    index();
    check_byzantine_budget();
    check_crashes();
    check_deliveries();
    check_halts();
    if (trace_.model() == Model::SCS) {
      check_no_delays();
      check_synchronous_delivery(/*from_round=*/1);
    } else {
      check_t_resilience();
      check_synchronous_delivery(trace_.gst());
      check_reliable_channels();
    }
    return std::move(report_);
  }

 private:
  void fail(const std::string& what) { report_.violations.push_back(what); }

  bool is_liar(ProcessId pid) const { return byz_.contains(pid); }

  /// The declared liar set must fit its budget, and the budget must satisfy
  /// the Byzantine resilience bound 3b < n.  Everything a DECLARED liar
  /// emits is excused below; misbehaviour attributable to anyone else is
  /// flagged — lies must be paid for out of the budget.
  void check_byzantine_budget() {
    const int b = trace_.byzantine_budget();
    const int n = trace_.config().n;
    if (b < 0) fail("byzantine budget is negative");
    if (b > 0 && 3 * b >= n) {
      fail("byzantine budget b=" + std::to_string(b) +
           " violates 3b < n (n=" + std::to_string(n) + ")");
    }
    if (static_cast<int>(byz_.size()) > b) {
      fail(std::to_string(byz_.size()) +
           " declared liars exceed byzantine budget b=" + std::to_string(b));
    }
    for (ProcessId pid : byz_) {
      if (pid < 0 || pid >= n) {
        fail("declared liar p" + std::to_string(pid) + " is out of range");
      }
    }
  }

  void index() {
    for (const CrashRecord& c : trace_.crashes()) {
      crash_round_[c.pid] = c.round;
      if (c.before_send) before_send_.insert(c.pid);
    }
    for (const SendRecord& s : trace_.sends()) {
      sent_.insert({s.sender, s.round});
    }
    for (const DeliveryRecord& d : trace_.deliveries()) {
      delivered_.insert({{d.sender, d.send_round}, d.receiver});
      if (d.recv_round != d.send_round || !indexed(d.recv_round, d.receiver)) {
        continue;
      }
      if (d.sender < 0 || d.sender >= kMaxProcesses) {
        scan_only_ = true;  // no ProcessSet holds it; let the scans judge
        continue;
      }
      const std::size_t cell = cell_of(d.recv_round, d.receiver);
      if (cell >= in_round_.size()) in_round_.resize(cell + 1);
      in_round_[cell].insert(d.sender);
    }
    for (const PendingRecord& p : trace_.pending()) {
      pending_.insert({{p.sender, p.send_round}, p.receiver});
    }
  }

  /// A process "completes round k" iff it has not crashed in round <= k.
  bool completes_round(ProcessId pid, Round k) const {
    auto it = crash_round_.find(pid);
    return it == crash_round_.end() || it->second > k;
  }

  bool crashes_in_round(ProcessId pid, Round k) const {
    auto it = crash_round_.find(pid);
    return it != crash_round_.end() && it->second == k;
  }

  void check_crashes() {
    const int t = trace_.config().t;
    std::set<ProcessId> seen;
    for (const CrashRecord& c : trace_.crashes()) {
      if (seen.count(c.pid)) {
        fail("process p" + std::to_string(c.pid) + " crashes twice");
      }
      seen.insert(c.pid);
      if (c.round < 1 || c.round > trace_.rounds_executed()) {
        fail("crash of p" + std::to_string(c.pid) + " at out-of-run round " +
             std::to_string(c.round));
      }
    }
    if (static_cast<int>(seen.size()) > t) {
      fail("more than t = " + std::to_string(t) + " crashes (" +
           std::to_string(seen.size()) + ")");
    }
  }

  void check_deliveries() {
    std::set<std::tuple<ProcessId, Round, ProcessId>> seen;
    std::map<std::pair<ProcessId, Round>, const DeliveryRecord*> first_copy;
    for (const DeliveryRecord& d : trace_.deliveries()) {
      // The violation prefix is built only when a check fails.
      const auto who = [&d] {
        return "message p" + std::to_string(d.sender) + "->p" +
               std::to_string(d.receiver) + " (sent@" +
               std::to_string(d.send_round) + ", recv@" +
               std::to_string(d.recv_round) + ")";
      };
      // A copy whose recorded emitter differs from its claimed sender is a
      // forgery; only a budgeted liar may be its emitter.
      if (d.origin >= 0 && d.origin != d.sender && !is_liar(d.origin)) {
        fail(who() + " forged by unbudgeted p" + std::to_string(d.origin));
      }
      if (d.recv_round < d.send_round) {
        fail(who() + " received before being sent");
      }
      if (!completes_round(d.receiver, d.recv_round)) {
        fail(who() + " received by a crashed process");
      }
      if (is_liar(d.emitter())) continue;  // budgeted: excused below here
      // (A budgeted liar may forge a copy in the receiver's own name and
      // route it through any fate, so the self-delivery timing rule only
      // binds honest emitters.)
      if (d.sender == d.receiver && d.recv_round != d.send_round) {
        fail(who() + " self-delivery must be in-round");
      }
      if (!sent_.count({d.sender, d.send_round})) {
        fail(who() + " received without having been sent");
      }
      if (!seen.insert({d.sender, d.send_round, d.receiver}).second) {
        fail(who() + " received more than once");
      }
      // Equivocation: one (sender, send round) broadcast must carry ONE
      // payload to every receiver.  Pointer equality first — the kernel
      // shares a broadcast's payload, so honest runs never pay for the
      // describe() comparison.
      if (d.payload != nullptr) {
        auto [it, inserted] =
            first_copy.try_emplace({d.sender, d.send_round}, &d);
        if (!inserted && it->second->payload != d.payload &&
            it->second->payload->describe() != d.payload->describe()) {
          fail("equivocation by unbudgeted p" + std::to_string(d.sender) +
               ": round-" + std::to_string(d.send_round) +
               " broadcast differs across receivers (" +
               it->second->payload->describe() + " vs " +
               d.payload->describe() + ")");
        }
      }
    }
    // Self-delivery presence: every sender completing its send round must
    // have received its own message in that round.
    for (const SendRecord& s : trace_.sends()) {
      if (!completes_round(s.sender, s.round)) continue;
      if (!delivered_.count({{s.sender, s.round}, s.sender})) {
        std::string msg = "p";
        msg += std::to_string(s.sender);
        msg += " missed its own round-";
        msg += std::to_string(s.round);
        msg += " message";
        fail(msg);
      }
    }
  }

  void check_halts() {
    // Kernel enforces halted => decided; re-check decisions uniqueness here.
    std::set<ProcessId> decided;
    for (const DecisionRecord& d : trace_.decisions()) {
      if (!decided.insert(d.pid).second) {
        std::string msg = "p";
        msg += std::to_string(d.pid);
        msg += " decided twice";
        fail(msg);
      }
    }
  }

  void check_no_delays() {
    for (const DeliveryRecord& d : trace_.deliveries()) {
      if (d.recv_round != d.send_round) {
        fail("SCS: delayed delivery p" + std::to_string(d.sender) + "->p" +
             std::to_string(d.receiver) + " sent@" +
             std::to_string(d.send_round) + " recv@" +
             std::to_string(d.recv_round));
      }
    }
    if (!trace_.pending().empty()) {
      fail("SCS: messages pending at end of run");
    }
  }

  /// From `from_round` on, a sender that does not crash in round k must be
  /// received in-round by every process completing round k.
  void check_synchronous_delivery(Round from_round) {
    for (const SendRecord& s : trace_.sends()) {
      if (s.round < from_round) continue;
      if (crashes_in_round(s.sender, s.round)) continue;
      if (is_liar(s.sender)) continue;  // selective silence is budgeted
      for (ProcessId r = 0; r < trace_.config().n; ++r) {
        if (!completes_round(r, s.round)) continue;
        if (!delivered_in_round(s.sender, s.round, r)) {
          fail("synchrony: p" + std::to_string(r) + " missed round-" +
               std::to_string(s.round) + " message of live sender p" +
               std::to_string(s.sender));
        }
      }
    }
  }

  /// (round, receiver) pairs the in-round index covers: the executed
  /// rounds and the configured processes.
  bool indexed(Round k, ProcessId receiver) const {
    return k >= 1 && k <= trace_.rounds_executed() && receiver >= 0 &&
           receiver < trace_.config().n;
  }

  std::size_t cell_of(Round k, ProcessId receiver) const {
    return static_cast<std::size_t>(k - 1) *
               static_cast<std::size_t>(trace_.config().n) +
           static_cast<std::size_t>(receiver);
  }

  /// RunTrace::in_round_senders, answered from the index when it covers
  /// the query.
  ProcessSet in_round_senders(ProcessId receiver, Round k) const {
    if (scan_only_ || !indexed(k, receiver)) {
      return trace_.in_round_senders(receiver, k);
    }
    const std::size_t cell = cell_of(k, receiver);
    return cell < in_round_.size() ? in_round_[cell] : ProcessSet{};
  }

  bool delivered_in_round(ProcessId sender, Round round,
                          ProcessId receiver) const {
    if (scan_only_ || !indexed(round, receiver)) {
      return delivered_in_round_scan(sender, round, receiver);
    }
    return sender >= 0 && sender < kMaxProcesses &&
           in_round_senders(receiver, round).contains(sender);
  }

  bool delivered_in_round_scan(ProcessId sender, Round round,
                               ProcessId receiver) const {
    for (const DeliveryRecord& d : trace_.deliveries()) {
      if (d.sender == sender && d.send_round == round &&
          d.receiver == receiver && d.recv_round == round) {
        return true;
      }
    }
    return false;
  }

  void check_t_resilience() {
    const SystemConfig& cfg = trace_.config();
    for (Round k = 1; k <= trace_.rounds_executed(); ++k) {
      for (ProcessId r = 0; r < cfg.n; ++r) {
        if (!completes_round(r, k)) continue;
        if (is_liar(r)) continue;  // the model owes liars nothing
        const ProcessSet heard = in_round_senders(r, k);
        const int got = heard.size();
        // A silent liar may withhold its copy without spending a crash:
        // the resilience floor only binds what HONEST senders deliver.
        const int missing_liars = (byz_ - heard).size();
        if (got + missing_liars < cfg.n - cfg.t) {
          fail("t-resilience: p" + std::to_string(r) + " received only " +
               std::to_string(got) + " round-" + std::to_string(k) +
               " messages in round " + std::to_string(k));
        }
      }
    }
  }

  void check_reliable_channels() {
    const ProcessSet correct = trace_.correct();
    for (const SendRecord& s : trace_.sends()) {
      if (!correct.contains(s.sender)) continue;
      for (ProcessId r : correct) {
        const std::pair<std::pair<ProcessId, Round>, ProcessId> key{
            {s.sender, s.round}, r};
        if (!delivered_.count(key) && !pending_.count(key)) {
          fail("reliable channels: round-" + std::to_string(s.round) +
               " message p" + std::to_string(s.sender) + "->p" +
               std::to_string(r) + " (both correct) was lost");
        }
      }
    }
  }

  const RunTrace& trace_;
  ValidationReport report_;
  const ProcessSet byz_ = trace_.byzantine();

  std::map<ProcessId, Round> crash_round_;
  std::set<ProcessId> before_send_;
  std::set<std::pair<ProcessId, Round>> sent_;
  std::set<std::pair<std::pair<ProcessId, Round>, ProcessId>> delivered_;
  std::set<std::pair<std::pair<ProcessId, Round>, ProcessId>> pending_;
  /// Senders of round-k copies that receiver r got in round k, at cell
  /// (k - 1) * n + r; cells past the end are empty.  Built in one pass, so
  /// the synchrony and resilience checks cost O(1) per query instead of a
  /// scan of every delivery.
  std::vector<ProcessSet> in_round_;
  /// Set when an in-round copy names a sender no ProcessSet can hold; the
  /// queries then fall back to the scans, which judge it as before.
  bool scan_only_ = false;
};

}  // namespace

std::string ValidationReport::to_string() const {
  if (ok()) return "trace valid";
  std::ostringstream os;
  os << violations.size() << " model violation(s):\n";
  for (const std::string& v : violations) os << "  - " << v << '\n';
  return os.str();
}

ValidationReport validate_trace(const RunTrace& trace) {
  return Checker(trace).run();
}

void expect_valid(const RunTrace& trace) {
  const ValidationReport report = validate_trace(trace);
  if (!report.ok()) {
    throw std::runtime_error(report.to_string() + "\ntrace:\n" +
                             trace.to_string());
  }
}

}  // namespace indulgence
