// AMR — the Mostefaoui-Raynal leader-based consensus the paper's Sect. 6
// compares A_{f+2} against (reference [14], "the second leader-based
// algorithm", with the ES eventual-leader of footnote 10).
//
// "We would like to point out that such a run of AMR would require
//  k + 2f + 2 rounds to globally decide."  (footnote 10)
//
// RECONSTRUCTION NOTE: we preserve the property the comparison rests on —
// every leader attempt costs TWO rounds, so each post-GST leader crash
// wastes an attempt and a run synchronous after round k with f crashes
// decides by k + 2f + 2 (vs. A_{f+2}'s k + f + 2).  Like A_{f+2} it needs
// t < n/3; safety comes from the same n - 2t occurrence argument
// (Lemma 14's counting), which holds regardless of leader behaviour:
//
//   attempt a (rounds 2a+1, 2a+2):
//     ADOPT round: everyone broadcasts est; everyone adopts the estimate of
//                  its current leader (footnote 10: the minimum-id sender
//                  heard this round).
//     VOTE round:  everyone broadcasts est; among the n - t votes with the
//                  lowest sender ids: unanimous value -> decide; a value
//                  occurring >= n - 2t times -> adopt (safety); otherwise
//                  KEEP the own estimate — convergence is the next leader
//                  attempt's job, which is exactly why each leader crash
//                  costs AMR two rounds where it costs A_{f+2} one.

#pragma once

#include "consensus/consensus.hpp"
#include "fd/leader.hpp"

namespace indulgence {

class AmrEstimateMessage final : public Message {
 public:
  explicit AmrEstimateMessage(Value est) : est_(est) {}
  Value est() const { return est_; }
  std::string describe() const override {
    return "AMR-EST(" + std::to_string(est_) + ")";
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<AmrEstimateMessage>(v);
  }

 private:
  Value est_;
};

class AmrVoteMessage final : public Message {
 public:
  explicit AmrVoteMessage(Value est) : est_(est) {}
  Value est() const { return est_; }
  std::string describe() const override {
    return "AMR-VOTE(" + std::to_string(est_) + ")";
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<AmrVoteMessage>(v);
  }

 private:
  Value est_;
};

class AmrLeader : public ConsensusBase {
 public:
  AmrLeader(ProcessId self, const SystemConfig& config);

  MessagePtr message_for_round(Round k) override;
  void on_round(Round k, const Delivery& delivered) override;

  std::string name() const override { return "AMR[leader]"; }

  Value estimate() const { return est_; }

 protected:
  void on_propose(Value v) override { est_ = v; }

 private:
  static bool is_adopt_round(Round k) { return k % 2 == 1; }

  Value est_ = 0;
  EventualLeader leader_;
  bool announce_pending_ = false;
};

AlgorithmFactory amr_leader_factory();

}  // namespace indulgence
