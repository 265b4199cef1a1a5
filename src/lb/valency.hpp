// Valency analysis of serial partial runs (paper Sect. 2, Lemmas 2-5).
//
// A k-round serial partial run is 0-/1-valent when every serial extension
// decides 0/1, bivalent when both values are reachable.  For small (n, t)
// we can compute valency exactly by enumerating all serial extensions.
//
// What the experiments check (E3):
//   * bivalent initial configurations exist (Lemma 3 — true for any
//     algorithm);
//   * bivalent (t-1)-round serial partial runs exist (Lemma 4);
//   * for an algorithm that decides at round t+1 in synchronous runs
//     (FloodSet), every t-round serial partial run is univalent (Lemma 2's
//     mechanism);
//   * for A_{t+2} (decides at t+2), bivalency survives one round longer —
//     t-round bivalent serial partial runs EXIST, and every (t+1)-round one
//     is univalent.  That extra round of uncertainty is the structural face
//     of the paper's "price of indulgence".

#pragma once

#include <set>
#include <vector>

#include "lb/explorer.hpp"

namespace indulgence {

class ValencyAnalyzer {
 public:
  /// `extension_rounds`: serial extensions inject crashes for this many
  /// rounds past the prefix (decisions must land within `max_rounds`).
  ValencyAnalyzer(SystemConfig config, AlgorithmFactory factory,
                  Round extension_rounds, Round max_rounds = 64);

  /// Decision values reachable by serial synchronous extensions of
  /// `prefix` under the given proposals.  Extensions that fail to
  /// terminate contribute no value; profile() reports them.
  std::set<Value> valency(const std::vector<Value>& proposals,
                          const std::vector<AdversaryAction>& prefix);

  struct Profile {
    std::vector<long> prefixes_checked;   ///< index = prefix length
    std::vector<long> bivalent_prefixes;  ///< index = prefix length
    bool all_terminated = true;
  };

  /// Counts bivalent serial partial runs of every length 0..max_prefix_len
  /// for fixed proposals.
  Profile profile(const std::vector<Value>& proposals, Round max_prefix_len);

  /// Lemma 3: is some initial configuration over binary proposals bivalent?
  /// Checks all 2^n assignments; returns how many are bivalent.
  int count_bivalent_binary_initial_configs();

 private:
  SystemConfig config_;
  AlgorithmFactory factory_;
  Round extension_rounds_;
  Round max_rounds_;
  bool last_all_terminated_ = true;
};

}  // namespace indulgence
