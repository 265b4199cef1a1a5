#include "sim/kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace indulgence {

namespace {

void validate_run_inputs(const SystemConfig& config,
                         const std::vector<Value>& proposals) {
  config.validate();
  if (static_cast<int>(proposals.size()) != config.n) {
    throw std::invalid_argument("Kernel: need exactly n proposals");
  }
  for (Value v : proposals) {
    if (v == kBottom) {
      throw std::invalid_argument("Kernel: kBottom is not a legal proposal");
    }
  }
}

}  // namespace

void execute_run(const SystemConfig& config, const KernelOptions& options,
                 const AlgorithmFactory& factory,
                 const std::vector<Value>& proposals, Adversary& adversary,
                 KernelScratch& scratch, RunTrace& trace) {
  validate_run_inputs(config, proposals);
  trace.reset(config, options.model, adversary.gst());

  const std::size_t n = static_cast<std::size_t>(config.n);
  scratch.algorithms.clear();
  scratch.algorithms.resize(n);
  scratch.alive.assign(n, 1);
  scratch.halted.assign(n, 0);
  scratch.decided.assign(n, 0);
  scratch.pending.clear();
  scratch.inboxes.resize(n);
  for (Delivery& inbox : scratch.inboxes) inbox.clear();

  // Byzantine mode: stamp the budget and keep per-round payload history so
  // Replay lies can resend stale rounds (sim/byzantine.hpp).
  const int byz_budget = adversary.byzantine_budget();
  if (byz_budget > 0) trace.set_byzantine_budget(byz_budget);
  scratch.history.resize(n);
  for (auto& h : scratch.history) h.clear();

  auto& procs = scratch.algorithms;
  auto& alive = scratch.alive;
  auto& halted = scratch.halted;
  auto& decided = scratch.decided;
  auto& pending = scratch.pending;

  for (ProcessId pid = 0; pid < config.n; ++pid) {
    procs[pid] = factory(pid, config);
    procs[pid]->propose(proposals[pid]);
    trace.record_proposal(pid, proposals[pid]);
  }

  Round executed = 0;
  bool all_decided = false;

  for (Round k = 1; k <= options.max_rounds; ++k) {
    const RoundPlan plan = adversary.plan_round(k);

    // --- crashes declared for this round ---------------------------------
    ProcessSet crashing_now;
    for (const CrashEvent& e : plan.crashes()) {
      if (e.pid < 0 || e.pid >= config.n || !alive[e.pid]) continue;
      crashing_now.insert(e.pid);
      trace.record_crash({k, e.pid, e.before_send});
    }

    // --- send phase -------------------------------------------------------
    auto& outgoing = scratch.outgoing;
    outgoing.clear();
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      if (!alive[pid]) continue;
      if (crashing_now.contains(pid) && plan.crashes_before_send(pid)) {
        continue;  // crashed before the send phase; no round-k message
      }
      MessagePtr payload;
      if (halted[pid]) {
        payload = std::make_shared<HaltedMessage>(*procs[pid]->decision());
      } else {
        payload = procs[pid]->message_for_round(k);
        if (!payload) {
          throw std::logic_error(procs[pid]->name() +
                                 ": message_for_round returned null");
        }
      }
      trace.record_send({k, pid, halted[pid] != 0});
      outgoing.push_back({pid, std::move(payload)});
    }

    // --- fate resolution ----------------------------------------------------
    // In-round deliveries of round-k messages, plus queueing of delays.
    // Byzantine senders get their copies rewritten first (sim/byzantine.hpp):
    // the fate of every copy — forged ones included — is still keyed by the
    // EMITTING process, so loss/delay plans compose with lies.
    const std::vector<ByzantineEvent>& lies = plan.byzantine();
    auto& inbox = scratch.inboxes;
    auto route = [&](ProcessId receiver, Envelope env) {
      const Fate fate = plan.fate(env.emitter(), receiver);
      switch (fate.kind) {
        case FateKind::Deliver:
          inbox[receiver].push_back(std::move(env));
          break;
        case FateKind::Lose:
          break;
        case FateKind::Delay:
          if (options.model == Model::SCS) {
            throw std::logic_error("Kernel: Delay fate in SCS model");
          }
          if (fate.deliver_round <= k) {
            throw std::logic_error("Kernel: delay into the past");
          }
          pending.push_back({fate.deliver_round, receiver, std::move(env)});
          break;
      }
    };
    for (const KernelScratch::Outgoing& out : outgoing) {
      if (byz_budget > 0) {
        auto& sent = scratch.history[out.sender];
        sent.resize(static_cast<std::size_t>(k));
        sent[static_cast<std::size_t>(k) - 1] = out.payload;
      }
      bool is_liar = false;
      for (const ByzantineEvent& e : lies) {
        if (e.liar == out.sender) is_liar = true;
      }
      if (is_liar) trace.record_byzantine(out.sender);
      for (ProcessId receiver = 0; receiver < config.n; ++receiver) {
        if (receiver == out.sender) {
          // Self-delivery: unconditional, and never affected by the
          // sender's own lies — a process knows its own state.
          inbox[receiver].push_back(Envelope{out.sender, k, out.payload});
          continue;
        }
        MessagePtr payload = out.payload;
        bool silenced = false;
        if (is_liar) {
          for (const ByzantineEvent& e : lies) {
            if (e.liar != out.sender || !e.applies_to(receiver)) continue;
            switch (e.kind) {
              case LieKind::Silence:
                silenced = true;
                break;
              case LieKind::Lie:
              case LieKind::Equivocate:
                if (MessagePtr m = payload->mutated(e.value)) {
                  payload = std::move(m);
                }
                break;
              case LieKind::Replay: {
                // Resend the stale round's payload stamped as fresh; the
                // honest copy stands in when no such payload exists.
                const auto& sent = scratch.history[out.sender];
                const auto idx = static_cast<std::size_t>(e.replay_round) - 1;
                if (e.replay_round >= 1 && idx < sent.size() && sent[idx]) {
                  payload = sent[idx];
                }
                break;
              }
              case LieKind::Forge: {
                // An EXTRA copy claiming the victim's id; origin stays the
                // liar so the trace remains attributable.
                if (e.forged < 0 || e.forged >= config.n ||
                    e.forged == out.sender) {
                  break;
                }
                MessagePtr forged_payload = out.payload;
                if (e.has_value) {
                  if (MessagePtr m = forged_payload->mutated(e.value)) {
                    forged_payload = std::move(m);
                  }
                }
                route(receiver, Envelope{e.forged, k,
                                         std::move(forged_payload),
                                         out.sender});
                break;
              }
            }
          }
        }
        if (silenced) continue;
        route(receiver, Envelope{out.sender, k, std::move(payload)});
      }
    }

    // Delayed messages falling due this round.
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->deliver_round == k) {
        inbox[it->receiver].push_back(std::move(it->envelope));
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    // --- mark this round's crashers dead (they do not receive) -----------
    for (ProcessId pid : crashing_now) alive[pid] = 0;
    // Drop pending messages addressed to dead receivers.
    std::erase_if(pending, [&](const KernelScratch::PendingMessage& p) {
      return !alive[p.receiver];
    });

    // --- receive phase ----------------------------------------------------
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      Delivery& delivery = inbox[pid];
      if (!alive[pid]) {
        delivery.clear();
        continue;
      }
      // Deterministic presentation order: by send round, then sender (a
      // stable sort — a forged copy shares its victim's key with the real
      // one, and insertion order must not be scrambled between runs).
      std::stable_sort(delivery.begin(), delivery.end(),
                       [](const Envelope& a, const Envelope& b) {
                         return a.send_round != b.send_round
                                    ? a.send_round < b.send_round
                                    : a.sender < b.sender;
                       });
      for (const Envelope& env : delivery) {
        trace.record_delivery(
            {k, pid, env.sender, env.send_round, env.payload, env.origin});
      }
      if (halted[pid]) {
        delivery.clear();
        continue;  // dummies only; the algorithm has returned
      }

      procs[pid]->on_round(k, delivery);

      if (!decided[pid]) {
        if (auto d = procs[pid]->decision()) {
          decided[pid] = 1;
          trace.record_decision({k, pid, *d});
        }
      }
      if (procs[pid]->halted()) {
        if (!decided[pid]) {
          throw std::logic_error(procs[pid]->name() +
                                 ": halted without deciding");
        }
        halted[pid] = 1;
        trace.record_halt(pid, k);
      }
      delivery.clear();
    }

    executed = k;

    // --- stop condition -----------------------------------------------------
    all_decided = true;
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      if (alive[pid] && !decided[pid]) {
        all_decided = false;
        break;
      }
    }
    if (all_decided && options.stop_on_global_decision) break;
  }

  for (const KernelScratch::PendingMessage& p : pending) {
    trace.record_pending(
        {p.envelope.sender, p.receiver, p.envelope.send_round, p.deliver_round});
  }
  trace.set_rounds_executed(executed);
  trace.set_terminated(all_decided);
}

RunTrace run_schedule(SystemConfig config, KernelOptions options,
                      const AlgorithmFactory& factory,
                      const std::vector<Value>& proposals,
                      const RunSchedule& schedule) {
  ScheduleRefAdversary adversary(schedule);
  KernelScratch scratch;
  RunTrace trace;
  execute_run(config, options, factory, proposals, adversary, scratch, trace);
  return trace;
}

}  // namespace indulgence
