#include "net/round_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace indulgence {

// ---------------------------------------------------------------------------
// RunControl

RunControl::RunControl(SystemConfig config)
    : config_(config),
      done_(static_cast<std::size_t>(config.n), 0),
      crashed_(static_cast<std::size_t>(config.n), 0),
      armed_(static_cast<std::size_t>(config.n), 0),
      candidate_(static_cast<std::size_t>(config.n), 0) {}

void RunControl::request_stop_locked(bool completed, bool& fire) {
  if (!completed) aborted_.store(true, std::memory_order_release);
  if (!stopped_) {
    stopped_ = true;
    completed_ = completed;
    stop_.store(true, std::memory_order_release);
    fire = true;
  } else if (!completed) {
    completed_ = false;  // an abort downgrades a normal stop
  }
}

bool RunControl::all_live_armed_locked() const {
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    if (!crashed_[i] && !armed_[i]) return false;
  }
  return true;
}

Round RunControl::stop_round_locked() const {
  Round s = 0;
  for (std::size_t i = 0; i < candidate_.size(); ++i) {
    if (!crashed_[i]) s = std::max(s, candidate_[i]);
  }
  return s;
}

void RunControl::report_done(ProcessId pid) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    done_[static_cast<std::size_t>(pid)] = 1;
    bool all = true;
    for (std::size_t i = 0; i < done_.size(); ++i) {
      if (!crashed_[i] && !done_[i]) {
        all = false;
        break;
      }
    }
    if (all) request_stop_locked(true, fire);
  }
  if (fire && on_stop) on_stop();
}

void RunControl::report_crash(ProcessId pid) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!crashed_[static_cast<std::size_t>(pid)]) {
      crashed_[static_cast<std::size_t>(pid)] = 1;
      // A driver that dies after arming must not keep pinning the stop
      // round: its armed bit and boundary candidate are both stale (the
      // rounds it committed to will never be sent), so peers recompute S
      // from the live processes only.
      armed_[static_cast<std::size_t>(pid)] = 0;
      crashed_n_.fetch_add(1, std::memory_order_acq_rel);
      bool all = true;
      for (std::size_t i = 0; i < done_.size(); ++i) {
        if (!crashed_[i] && !done_[i]) {
          all = false;
          break;
        }
      }
      if (all) request_stop_locked(true, fire);
    }
  }
  if (fire && on_stop) on_stop();
}

void RunControl::force_stop(bool completed) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    request_stop_locked(completed, fire);
  }
  if (fire && on_stop) on_stop();
}

bool RunControl::boundary(ProcessId pid, Round next_round) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t i = static_cast<std::size_t>(pid);
  armed_[i] = 1;
  candidate_[i] = std::max(candidate_[i], next_round - 1);
  if (all_live_armed_locked() && next_round > stop_round_locked()) return true;
  // Can't exit yet: commit the round about to be sent, so every live peer
  // must complete it too before it may exit.
  candidate_[i] = std::max(candidate_[i], next_round);
  return false;
}

bool RunControl::is_crashed(ProcessId pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crashed_[static_cast<std::size_t>(pid)] != 0;
}

bool RunControl::completed_normally() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopped_ && completed_;
}

// ---------------------------------------------------------------------------
// RoundDriver

namespace {

/// Scripted replay only: abort a run whose expected messages never arrive
/// (a runtime bug or a dead peer thread), instead of hanging the test.
constexpr std::chrono::seconds kScriptedWait{30};

/// True when a stop drain may close a round below the n − t quorum: the
/// run aborted, copies may be lost (loss_prob > 0), or fewer than n − t
/// processes are neither crashed nor declared liars, which may withhold
/// their copies.  Otherwise n − t copies are still on their way.
bool quorum_unreachable(const DriverContext& ctx) {
  const LiveOptions& opt = *ctx.options;
  if (ctx.control->aborted() || opt.loss_prob > 0) return true;
  ProcessSet silent;
  for (const ByzantineInjection& b : opt.byzantine) silent.insert(b.event.liar);
  for (ProcessId pid = 0; pid < ctx.config.n; ++pid) {
    if (ctx.control->is_crashed(pid)) silent.insert(pid);
  }
  return ctx.config.n - silent.size() < ctx.config.n - ctx.config.t;
}

}  // namespace

RoundDriver::RoundDriver(DriverContext ctx) : ctx_(std::move(ctx)) {}

void RoundDriver::run() noexcept {
#if defined(__linux__)
  // This thread's timed pop releases each router copy, due 20-100 us after
  // its dispatch by default, and the kernel's default 50 us timer slack would
  // let that wait fire that much late.  1 ns is the smallest; 0 = default.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  try {
    run_impl();
  } catch (...) {
    error_ = std::current_exception();
    // Unblock the peers: without these reports their gates would wait for
    // this process' messages until their own timeouts.
    ctx_.transport->mark_dead(ctx_.self);
    ctx_.control->report_crash(ctx_.self);
    ctx_.control->force_stop(false);
  }
}

bool RoundDriver::is_done() const {
  if (ctx_.done) return ctx_.done(*algorithm_);
  return algorithm_->decision().has_value();
}

void RoundDriver::route(NetEnvelope env, Round k) {
  // Distinct senders, not envelopes: a reliable channel replaying its
  // window after a socket reset can deliver the same (sender, send_round)
  // copy twice, and counting it twice would close the quorum gate early —
  // with one real sender short.  Exactly-once is also what the validator's
  // reliable-channel check demands of the merged trace.
  const ProcessId emitter = env.origin < 0 ? env.sender : env.origin;
  if (!seen_copies_.emplace(env.send_round, env.sender, emitter).second) {
    ++log_.duplicate_copies;
    return;
  }
  // Forged copies never count toward the quorum gate: inflating the count
  // could close a round before an honest sender's copy lands, turning a
  // content attack into a synchrony violation the liar did not pay for.
  const bool forged = env.origin >= 0 && env.origin != env.sender;
  const Round slot = env.target_round > 0 ? env.target_round : env.send_round;
  if (slot > k) {
    future_[slot].push_back(
        Envelope{env.sender, env.send_round, std::move(env.payload),
                 env.origin});
    return;
  }
  if (!forged) {
    if (env.send_round == k) {
      ++in_round_count_;
    } else {
      ++delayed_count_;
    }
  }
  batch_.push_back(Envelope{env.sender, env.send_round, std::move(env.payload),
                            env.origin});
}

void RoundDriver::adopt_future(Round k) {
  auto it = future_.find(k);
  if (it == future_.end()) return;
  for (Envelope& e : it->second) {
    if (e.origin < 0 || e.origin == e.sender) {
      if (e.send_round == k) {
        ++in_round_count_;
      } else {
        ++delayed_count_;
      }
    }
    batch_.push_back(std::move(e));
  }
  future_.erase(it);
}

void RoundDriver::collect_scripted(Round k) {
  const int want_in = ctx_.script->expected_in_round(ctx_.self, k);
  const int want_delayed = ctx_.script->expected_delayed(ctx_.self, k);
  const Clock::time_point deadline = Clock::now() + kScriptedWait;
  while (in_round_count_ < want_in || delayed_count_ < want_delayed) {
    if (auto env = ctx_.mailbox->pop_for(std::chrono::microseconds{2000})) {
      route(std::move(*env), k);
      continue;
    }
    if (ctx_.control->aborted()) {
      throw std::runtime_error("scripted replay aborted by peer failure");
    }
    if (Clock::now() >= deadline) {
      throw std::runtime_error(
          "scripted replay stalled: p" + std::to_string(ctx_.self) +
          " round " + std::to_string(k) + " got " +
          std::to_string(in_round_count_) + "/" + std::to_string(want_in) +
          " in-round and " + std::to_string(delayed_count_) + "/" +
          std::to_string(want_delayed) + " delayed envelopes");
    }
  }
}

void RoundDriver::collect_live(Round k) {
  const LiveOptions& opt = *ctx_.options;
  const Clock::time_point round_start = Clock::now();
  std::optional<Clock::time_point> drain_since;

  SyncView view;
  view.round = k;
  view.quorum = ctx_.config.n - ctx_.config.t;
  view.round_start = round_start;
  synchronizer_->round_open(view);
  // Transient-fault injection fires after round_open (which resets soft
  // state and would otherwise erase the corruption).
  for (const SyncCorruption& c : opt.sync_corruptions) {
    if (c.pid == ctx_.self && c.round == k) synchronizer_->corrupt(c.bits);
  }
  const ProcessId coord = synchronizer_->coordinator(k);

  for (;;) {
    const Clock::time_point now = Clock::now();
    // The RTT-emulation floor holds a round open even after everyone has
    // been heard from — but only for timer-paced policies, and never once
    // a stop is draining.
    const bool floor_passed = opt.round_floor.count() == 0 ||
                              now - round_start >= opt.round_floor ||
                              !synchronizer_->paced_by_floor() ||
                              ctx_.control->stop_requested();

    view.in_round = in_round_count_;
    view.possible = ctx_.config.n - ctx_.control->crashed_count();
    view.coordinator_crashed = coord >= 0 && ctx_.control->is_crashed(coord);
    // The pacemaker's publish hook: a coordinator must pulse even when its
    // own round is about to close on a full set.
    synchronizer_->observe(view, now);

    // Everyone who could still send has: close immediately.  Senders not
    // counted here are crashed, and their round-k copies (if any) arriving
    // later are crash-round deliveries the synchrony check exempts.
    if (in_round_count_ >= view.possible && floor_passed) break;

    if (ctx_.control->stop_requested()) {
      // The drain valve: a scheduling-jitter bound, never a way below the
      // n − t quorum while n − t copies can still arrive.
      if (!drain_since) {
        drain_since = now;
      } else if (now - *drain_since >= opt.drain_wait &&
                 (in_round_count_ >= view.quorum ||
                  quorum_unreachable(ctx_))) {
        break;
      }
    } else {
      // The synchronizer is only consulted at or above the n − t quorum —
      // the validator's t-resilience floor.  No policy (or corrupted
      // policy state) can close a round below it.
      if (in_round_count_ >= view.quorum &&
          synchronizer_->should_close(view, now) && floor_passed) {
        break;
      }
      if (opt.round_cap.count() > 0 && now - round_start >= opt.round_cap) {
        break;  // model-violating escape valve (lossy runs); validator flags it
      }
    }
    // Poll in 100 us steps, but wake when the floor ends: a floored round
    // that has heard everyone closes at its floor, not up to a step late.
    auto wait = std::chrono::microseconds{100};
    if (!floor_passed) {
      wait = std::min(wait, std::chrono::ceil<std::chrono::microseconds>(
                                round_start + opt.round_floor - now));
    }
    if (auto env = ctx_.mailbox->pop_for(wait)) route(std::move(*env), k);
  }
}

void RoundDriver::finish_round(Round k) {
  // The kernel presents each round's batch ordered by (send_round, sender);
  // matching that order makes replay batches bit-identical inputs.
  std::sort(batch_.begin(), batch_.end(),
            [](const Envelope& a, const Envelope& b) {
              if (a.send_round != b.send_round) {
                return a.send_round < b.send_round;
              }
              if (a.sender != b.sender) return a.sender < b.sender;
              // Forged copies share (send_round, sender) with the honest
              // original; ordering by emitter keeps batches deterministic.
              return a.emitter() < b.emitter();
            });
  for (const Envelope& e : batch_) {
    log_.deliveries.push_back(DeliveryRecord{k, ctx_.self, e.sender,
                                             e.send_round, e.payload,
                                             e.origin});
  }
  if (!halted_) {
    algorithm_->on_round(k, batch_);
    if (!decided_) {
      if (auto d = algorithm_->decision()) {
        decided_ = true;
        log_.decisions.push_back(DecisionRecord{k, ctx_.self, *d});
      }
    }
    if (algorithm_->halted()) {
      if (!decided_) {
        throw std::logic_error(algorithm_->name() +
                               " halted without deciding");
      }
      halted_ = true;
      log_.halt_round = k;
    }
  }
  if (!reported_done_ && is_done()) {
    reported_done_ = true;
    log_.done = true;
    ctx_.control->report_done(ctx_.self);
  }
  if (ctx_.observer) {
    ctx_.observer(ctx_.self, k, *algorithm_,
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - ctx_.epoch));
  }
  log_.completed = k;
}

void RoundDriver::run_impl() {
  algorithm_ = ctx_.factory(ctx_.self, ctx_.config);
  algorithm_->propose(ctx_.proposal);
  log_.proposal = ctx_.proposal;
  synchronizer_ =
      make_round_synchronizer(*ctx_.options, ctx_.config, ctx_.self,
                              ctx_.pulses);

  std::optional<CrashInjection> crash;
  if (ctx_.script) {
    crash = ctx_.script->crash_of(ctx_.self);
  } else {
    for (const CrashInjection& c : ctx_.options->crashes) {
      if (c.pid == ctx_.self) {
        crash = c;
        break;
      }
    }
  }

  RunControl& control = *ctx_.control;
  for (Round k = 1;; ++k) {
    if (ctx_.fixed_rounds > 0) {
      // Multi-process mode: the round count is agreed a priori; the only
      // stop signal is a local failure abort (no shared-memory armed-stop).
      if (k > ctx_.fixed_rounds || control.stop_requested()) break;
    } else {
      if (!control.stop_requested() && k > ctx_.options->max_rounds) {
        control.force_stop(false);
      }
      if (control.stop_requested() && control.boundary(ctx_.self, k)) break;
    }

    // Injected (wall-clock-mode) crashes are suppressed once the stop is
    // requested so the drain stays live; scripted crashes always execute,
    // because every peer's expected envelope counts account for them.
    const bool crash_now =
        crash && crash->round == k &&
        !(ctx_.script == nullptr && control.stop_requested());
    if (crash_now && crash->before_send) {
      log_.crash = CrashRecord{k, ctx_.self, true};
      ctx_.transport->mark_dead(ctx_.self);
      control.report_crash(ctx_.self);
      return;
    }

    // Send phase; the self-copy is delivered inline and unconditionally
    // in-round, mirroring the kernel.
    MessagePtr payload =
        halted_ ? MessagePtr(std::make_shared<HaltedMessage>(
                      *algorithm_->decision()))
                : algorithm_->message_for_round(k);
    if (!payload) {
      throw std::logic_error(algorithm_->name() +
                             " returned a null round message");
    }
    log_.sends.push_back(SendRecord{k, ctx_.self, halted_});
    batch_.clear();
    in_round_count_ = 0;
    delayed_count_ = 0;
    route(NetEnvelope{ctx_.self, k, k, 0, payload}, k);
    ctx_.transport->dispatch(ctx_.self, k, payload);

    if (crash_now) {
      log_.crash = CrashRecord{k, ctx_.self, false};
      ctx_.transport->mark_dead(ctx_.self);
      control.report_crash(ctx_.self);
      return;
    }

    // Receive phase.
    adopt_future(k);
    if (ctx_.script) {
      collect_scripted(k);
    } else {
      collect_live(k);
    }
    finish_round(k);
  }

  // Reorder-buffer leftovers are copies scheduled past the stop round:
  // still pending, never received.
  for (const auto& [slot, envelopes] : future_) {
    for (const Envelope& e : envelopes) {
      log_.leftovers.push_back(
          UndeliveredCopy{e.sender, ctx_.self, e.send_round, slot});
    }
  }
}

}  // namespace indulgence
