#include "fuzz/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fuzz/targets.hpp"
#include "sim/schedule_io.hpp"

namespace indulgence {

namespace {

[[noreturn]] void meta_fail(int line, const std::string& what) {
  throw std::runtime_error(".sched meta line " + std::to_string(line) + ": " +
                           what);
}

std::string meta_value(const std::string& line, std::size_t key_len) {
  const std::size_t start = line.find_first_not_of(" \t", key_len);
  return start == std::string::npos ? "" : line.substr(start);
}

}  // namespace

std::string print_repro(const ReproCase& repro) {
  std::ostringstream os;
  os << "repro v1\n";
  {
    std::istringstream comment(repro.comment);
    std::string line;
    while (std::getline(comment, line)) {
      os << "#" << (line.empty() ? "" : " ") << line << "\n";
    }
  }
  os << "algo " << repro.algo << "\n";
  if (repro.check) os << "check " << *repro.check << "\n";
  os << "expect "
     << (repro.expect_invalid ? "invalid"
                              : repro.expect_violation ? "violation" : "ok")
     << "\n";
  if (repro.model) os << "model " << to_string(*repro.model) << "\n";
  if (repro.max_rounds != 64) os << "max-rounds " << repro.max_rounds << "\n";
  if (!repro.proposals.empty()) {
    os << "proposals";
    for (Value v : repro.proposals) os << " " << v;
    os << "\n";
  }
  os << print_schedule(repro.schedule);
  return os.str();
}

ReproCase parse_repro(std::string_view text) {
  std::istringstream input{std::string(text)};
  std::string line;
  int line_number = 0;
  bool saw_header = false;
  ReproCase repro;
  std::string comment;
  std::string schedule_text;

  while (std::getline(input, line)) {
    ++line_number;
    // Everything from the 'sched' header on is the schedule document.
    std::istringstream probe(line);
    std::string first;
    probe >> first;
    if (saw_header && first == "sched") {
      std::ostringstream rest;
      rest << line << "\n";
      while (std::getline(input, line)) rest << line << "\n";
      schedule_text = rest.str();
      break;
    }

    if (first.empty()) continue;
    if (first[0] == '#') {
      std::string stripped = line.substr(line.find('#') + 1);
      if (!stripped.empty() && stripped[0] == ' ') stripped.erase(0, 1);
      comment += stripped + "\n";
      continue;
    }
    if (!saw_header) {
      if (first != "repro") {
        meta_fail(line_number, "file must start with 'repro v1'");
      }
      std::string version;
      probe >> version;
      if (version != "v1") {
        meta_fail(line_number, "unsupported repro format version (want v1)");
      }
      saw_header = true;
      continue;
    }

    if (first == "algo") {
      repro.algo = meta_value(line, line.find("algo") + 4);
      if (repro.algo.empty()) meta_fail(line_number, "empty algo name");
    } else if (first == "check") {
      repro.check = meta_value(line, line.find("check") + 5);
    } else if (first == "expect") {
      const std::string v = meta_value(line, line.find("expect") + 6);
      if (v == "violation") {
        repro.expect_violation = true;
      } else if (v == "ok") {
        repro.expect_violation = false;
      } else if (v == "invalid") {
        repro.expect_invalid = true;
      } else {
        meta_fail(line_number,
                  "expect must be 'violation', 'ok', or 'invalid'");
      }
    } else if (first == "model") {
      const std::string v = meta_value(line, line.find("model") + 5);
      if (v == "ES") {
        repro.model = Model::ES;
      } else if (v == "SCS") {
        repro.model = Model::SCS;
      } else {
        meta_fail(line_number, "model must be 'ES' or 'SCS'");
      }
    } else if (first == "max-rounds") {
      std::istringstream value(meta_value(line, line.find("max-rounds") + 10));
      if (!(value >> repro.max_rounds) || repro.max_rounds < 1) {
        meta_fail(line_number, "max-rounds must be a positive integer");
      }
    } else if (first == "proposals") {
      std::istringstream values(meta_value(line, line.find("proposals") + 9));
      Value v = 0;
      while (values >> v) repro.proposals.push_back(v);
      if (repro.proposals.empty()) {
        meta_fail(line_number, "proposals needs at least one value");
      }
    } else {
      meta_fail(line_number, "unknown meta directive '" + first + "'");
    }
  }

  if (!saw_header) meta_fail(line_number, "empty document");
  if (repro.algo.empty()) meta_fail(line_number, "missing 'algo' directive");
  if (schedule_text.empty()) {
    meta_fail(line_number, "missing schedule ('sched v1' section)");
  }
  repro.comment = comment;
  repro.schedule = parse_schedule(schedule_text);
  if (!repro.proposals.empty() &&
      static_cast<int>(repro.proposals.size()) != repro.config().n) {
    meta_fail(line_number, "proposals count must equal n");
  }
  return repro;
}

ReproCase load_repro_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open repro file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_repro(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::vector<std::pair<std::string, ReproCase>> load_corpus_dir(
    const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".sched") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, ReproCase>> corpus;
  corpus.reserve(files.size());
  for (const std::filesystem::path& path : files) {
    corpus.emplace_back(path.filename().string(),
                        load_repro_file(path.string()));
  }
  return corpus;
}

RunResult run_repro(const FuzzTarget& target, const ReproCase& repro,
                    AlgorithmInstances* algorithms_out) {
  KernelOptions options;
  options.model = repro.model.value_or(target.model);
  options.max_rounds = repro.max_rounds;
  return run_and_check(repro.config(), options, target.factory,
                       repro.proposals.empty()
                           ? distinct_proposals(repro.config().n)
                           : repro.proposals,
                       repro.schedule, algorithms_out);
}

ReplayVerdict replay_repro(const FuzzTarget& target, const ReproCase& repro) {
  AlgorithmInstances algorithms;
  const RunResult result = run_repro(target, repro, &algorithms);
  ReplayVerdict verdict;
  verdict.name = target.name;
  verdict.expect_violation = repro.expect_violation;
  verdict.expect_invalid = repro.expect_invalid;
  verdict.model_valid = result.validation.ok();
  if (auto what = find_check(repro.check.value_or(target.check))(
          result, algorithms)) {
    verdict.violation = true;
    verdict.detail = *what;
  }
  return verdict;
}

ReplayVerdict replay_repro(const std::string& name, const ReproCase& repro) {
  const FuzzTarget* target = find_fuzz_target(repro.algo);
  if (!target) {
    throw std::runtime_error(name + ": unknown fuzz target '" + repro.algo +
                             "'");
  }
  ReplayVerdict verdict = replay_repro(*target, repro);
  verdict.name = name;
  return verdict;
}

namespace {

/// Chunk-ordered verdict accumulator (parallel_reduce monoid).
struct VerdictList {
  std::vector<ReplayVerdict> verdicts;
  void merge(const VerdictList& other) {
    verdicts.insert(verdicts.end(), other.verdicts.begin(),
                    other.verdicts.end());
  }
};

}  // namespace

std::vector<ReplayVerdict> replay_corpus(
    const std::vector<std::pair<std::string, ReproCase>>& corpus,
    CampaignOptions campaign) {
  VerdictList all = parallel_reduce<VerdictList>(
      static_cast<long>(corpus.size()), campaign.resolved_chunk(1),
      campaign.resolved_jobs(), VerdictList{},
      [&](long, long begin, long end) {
        VerdictList partial;
        for (long i = begin; i < end; ++i) {
          const auto& [name, repro] = corpus[static_cast<std::size_t>(i)];
          partial.verdicts.push_back(replay_repro(name, repro));
        }
        return partial;
      });
  return all.verdicts;
}

}  // namespace indulgence
