// The benchmark's own arithmetic, kept apart from the workloads so that
// test_metrics.cpp can check it without running a system: how repetitions
// combine, which quantile a sample supports, the open-loop attempt window,
// the re-derivation of arrival due instants, and span self time.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "client/arrivals.hpp"
#include "client/workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Samples strictly beyond the q-quantile as LatencyHistogram::quantile
/// picks it (the ceil(q * count)-th smallest value).  A quantile is reported
/// only when at least ten samples lie beyond it.
inline std::uint64_t samples_beyond(std::uint64_t count, double q) {
  // The epsilon keeps ceil(0.99 * 1000) at 990 despite binary rounding.
  const double rank = static_cast<double>(count) * q - 1e-9;
  const auto at = static_cast<std::uint64_t>(std::max(0.0, std::ceil(rank)));
  return count > at ? count - at : 0;
}

inline bool quantile_supported(std::uint64_t count, double q) {
  return samples_beyond(count, q) >= 10;
}

/// The mean of the middle half of `values` (a quarter, rounded down, is
/// dropped from each end): steadier than the median over a handful of
/// repetitions, and unmoved by one repetition that a stall spoiled.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

/// Client `client`'s arrival instants (µs from the fleet epoch) up to
/// `horizon_us`, drawn exactly as ClientFleet's open-loop Poisson clients
/// draw them: rate target / num_clients, seed options.seed, stream = client
/// index.  Entry s is the due instant of the client's seq s, shed arrivals
/// included.
inline std::vector<std::uint64_t> due_instants(
    const indulgence::client::WorkloadOptions& options, int client,
    std::uint64_t horizon_us) {
  indulgence::client::ArrivalOptions arrivals;
  arrivals.kind = indulgence::client::ArrivalKind::Poisson;
  arrivals.rate_per_sec = options.target_rate_per_sec / options.num_clients;
  indulgence::client::ArrivalProcess process(
      arrivals, options.seed, static_cast<std::uint64_t>(client));
  std::vector<std::uint64_t> due;
  for (std::uint64_t at = process.next_arrival_us(); at <= horizon_us;
       at = process.next_arrival_us()) {
    due.push_back(at);
  }
  return due;
}

struct WindowCounts {
  long attempted = 0;
  long failed = 0;
};

/// The open-loop attempt window of one client: every arrival due before
/// `stop_us` (the stop request) is attempted; it failed when the fleet shed
/// or abandoned it, or never generated it at all (`states` shorter than the
/// due list).  Arrivals due after the stop request count for nothing.
inline WindowCounts count_due_window(
    const std::vector<std::uint64_t>& due,
    const std::vector<indulgence::client::CommandState>& states,
    std::uint64_t stop_us) {
  using indulgence::client::CommandState;
  WindowCounts counts;
  for (std::size_t seq = 0; seq < due.size() && due[seq] < stop_us; ++seq) {
    ++counts.attempted;
    if (seq >= states.size()) {
      ++counts.failed;
      continue;
    }
    const CommandState state = states[seq];
    if (state == CommandState::Shed || state == CommandState::Abandoned ||
        state == CommandState::AckedLate) {
      ++counts.failed;
    }
  }
  return counts;
}

/// One timed interval recorded by the benchmark, in nanoseconds from the
/// repetition's origin.  `parent` indexes the enclosing span in the same
/// buffer (-1 for a root); `id` ties spans of one command or round together.
struct Span {
  int name = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t id = 0;
  int parent = -1;
};

/// Self time of every span: its length minus the union of its direct
/// children's intervals, each clipped to the parent's own interval.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t begin = std::max(s.start, p.start);
    const std::int64_t end = std::min(s.end, p.end);
    if (begin < end) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(begin, end);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start;
    for (const auto& [begin, end] : kids) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// A single thread's span recorder: open/close nest through a stack, so a
/// span opened while another is open becomes its child.  Not thread-safe;
/// every recording thread owns one buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point origin) : origin_(origin) {}

  void open(int name, std::int64_t id = 0) {
    const std::int64_t at = now();
    spans_.push_back(
        Span{name, at, at, id, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  void close() { spans_[static_cast<std::size_t>(pop())].end = now(); }

  /// Closes the innermost span and sets its id (known only at the end, e.g.
  /// the command a pull returned).
  void close(std::int64_t id) {
    Span& s = spans_[static_cast<std::size_t>(pop())];
    s.end = now();
    s.id = id;
  }

  bool is_open(int name) const {
    return !stack_.empty() &&
           spans_[static_cast<std::size_t>(stack_.back())].name == name;
  }

  /// Records a span whose bounds were stamped elsewhere; returns its index
  /// for use as a later span's parent.
  int add(int name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::int64_t id = 0) {
    spans_.push_back(Span{name, ns(start), ns(end), id, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends every span still open at the latest end recorded so far and hands
  /// the spans over, leaving the buffer empty.
  std::vector<Span> finish() {
    std::int64_t last = 0;
    for (const Span& s : spans_) last = std::max(last, s.end);
    while (!stack_.empty()) spans_[static_cast<std::size_t>(pop())].end = last;
    return std::move(spans_);
  }

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

 private:
  std::int64_t now() const { return ns(Clock::now()); }
  int pop() {
    const int top = stack_.back();
    stack_.pop_back();
    return top;
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
