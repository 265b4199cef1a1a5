// E10 — engineering microbenchmarks (google-benchmark).
//
// Simulator and algorithm throughput: rounds/sec of the kernel, cost per
// simulated consensus instance by n and algorithm, adversary planning cost,
// and the lower-bound explorer's enumeration rate.
//
// The wire-codec section measures the socket hot path: legacy
// (vector-returning) vs pooled (writer-reusing) envelope encoding in
// ns/frame and allocations/frame, FrameParser decode cost, and — over a
// real SocketEndpoint pair with a pre-queued backlog — how many frames the
// batched flush ships per writev syscall.  The deterministic numbers are
// persisted to BENCH_e10_wire.json with the PR's two gates: pooled
// encoding must cut allocations/frame by >= 5x and the coalesced flush
// must ship >= 4 frames/syscall (the pre-batching flush wrote exactly one
// frame per syscall by construction).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "consensus/floodset.hpp"
#include "core/af2.hpp"
#include "lb/explorer.hpp"
#include "net/sharded_runtime.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "rsm/rsm.hpp"

// --- allocation counting -----------------------------------------------------
//
// Global new/delete overrides with a relaxed atomic counter: the codec
// benchmarks snapshot it around their loops to report allocations/frame.
// Counts every thread in the binary, so the deterministic measurements run
// single-threaded before any endpoint spins up.

namespace {
std::atomic<long> g_allocs{0};
}  // namespace

// noinline: once GCC inlines these it pairs the malloc with operator new's
// caller and emits a -Wmismatched-new-delete false positive at every
// allocation site in the TU.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace indulgence {
namespace {

/// A payload shaped like the RSM service's steady state: a slot bundle with
/// one running part and one inline DECIDE notice, so the codec benchmarks
/// exercise the recursive encoder, not just a fixed-size struct copy.
NetEnvelope representative_envelope() {
  NetEnvelope env;
  env.sender = 1;
  env.send_round = 5;
  env.target_round = 5;
  env.group = 3;
  env.payload = std::make_shared<RsmBundleMessage>(
      std::vector<RsmBundleMessage::Part>{
          {1, std::make_shared<FloodEstimateMessage>(Value{7})}},
      std::vector<RsmBundleMessage::Notice>{{0, Value{4242}}});
  return env;
}

struct CodecSample {
  double ns_per_frame = 0;
  double allocs_per_frame = 0;
};

template <typename Fn>
CodecSample measure_codec(int iters, Fn&& fn) {
  fn(0);  // warm caches / pool capacity outside the measured window
  const long alloc_before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 1; i <= iters; ++i) fn(i);
  const auto dt = std::chrono::steady_clock::now() - t0;
  const long alloc_after = g_allocs.load(std::memory_order_relaxed);
  CodecSample s;
  s.ns_per_frame =
      std::chrono::duration<double, std::nano>(dt).count() / iters;
  s.allocs_per_frame = static_cast<double>(alloc_after - alloc_before) / iters;
  return s;
}

struct LoadedLinkStats {
  long frames = 0;     ///< envelopes flushed (first sends + resends)
  long syscalls = 0;   ///< writev/sendmsg calls the flush path made
  double frames_per_syscall = 0;
  bool completed = false;  ///< every queued envelope left the hold queues
};

/// Queues `envelopes` broadcasts on an endpoint BEFORE its supervisor
/// starts, so the first flush cycles see a deep backlog — the shape the
/// coalesced flush exists for — then reads the sent/syscall counters back.
LoadedLinkStats measure_loaded_link(int envelopes) {
  const SystemConfig cfg{.n = 3, .t = 1};
  std::string dir = (std::filesystem::temp_directory_path() /
                     "indulgence-e10-wire-XXXXXX")
                        .string();
  if (::mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed");
  }
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  const AddressResolver resolve =
      [&addrs](ProcessId node) -> std::optional<SocketAddress> {
    return addrs[static_cast<std::size_t>(node)];
  };
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(
        std::make_unique<Mailbox>(static_cast<std::size_t>(envelopes) + 64));
    SocketTransportOptions opts;
    opts.seed = 900 + static_cast<std::uint64_t>(pid);
    endpoints.push_back(std::make_unique<SocketEndpoint>(
        pid, cfg.n, addrs[static_cast<std::size_t>(pid)], resolve, opts));
    endpoints.back()->add_group(GroupSpec{0, cfg, pid,
                                          group_placement(0, cfg.n, cfg.n),
                                          mailboxes.back().get()});
  }
  for (int i = 0; i < envelopes; ++i) {
    endpoints[0]->dispatch_group(
        0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
  }
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);

  const long expected =
      static_cast<long>(envelopes) * (cfg.n - 1);  // broadcast copies
  const auto deadline = epoch + std::chrono::seconds{20};
  LoadedLinkStats stats;
  for (;;) {
    const SocketCounters c = endpoints[0]->counters();
    if (c.envelopes_sent + c.envelopes_resent >= expected) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  for (auto& ep : endpoints) ep->stop_and_flush();
  SocketCounters total;
  for (auto& ep : endpoints) total += ep->counters();
  endpoints.clear();
  std::filesystem::remove_all(dir);

  stats.frames = total.envelopes_sent + total.envelopes_resent;
  stats.syscalls = total.flush_syscalls;
  stats.frames_per_syscall =
      stats.syscalls > 0
          ? static_cast<double>(stats.frames) / stats.syscalls
          : 0;
  stats.completed = stats.frames >= expected;
  return stats;
}

void BM_FailureFreeAt2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SystemConfig cfg{.n = n, .t = (n - 1) / 2};
  const AlgorithmFactory factory = bench::default_at2();
  const std::vector<Value> proposals = distinct_proposals(n);
  const RunSchedule schedule = failure_free_schedule(cfg);
  for (auto _ : state) {
    RunTrace trace = run_schedule(cfg, bench::es_options(), factory,
                                  proposals, schedule);
    benchmark::DoNotOptimize(trace.rounds_executed());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailureFreeAt2)->Arg(5)->Arg(9)->Arg(17)->Arg(33);

void BM_FailureFreeFloodSet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SystemConfig cfg{.n = n, .t = (n - 1) / 2};
  const AlgorithmFactory factory = floodset_factory();
  const std::vector<Value> proposals = distinct_proposals(n);
  const RunSchedule schedule = failure_free_schedule(cfg);
  for (auto _ : state) {
    RunTrace trace = run_schedule(cfg, bench::scs_options(), factory,
                                  proposals, schedule);
    benchmark::DoNotOptimize(trace.rounds_executed());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailureFreeFloodSet)->Arg(5)->Arg(9)->Arg(17)->Arg(33);

void BM_RandomAdversaryRun(benchmark::State& state) {
  const SystemConfig cfg{.n = 9, .t = 4};
  const AlgorithmFactory factory = bench::default_at2();
  const std::vector<Value> proposals = distinct_proposals(cfg.n);
  std::uint64_t seed = 1;
  KernelScratch scratch;
  RunTrace trace;
  for (auto _ : state) {
    RandomEsOptions opt;
    opt.gst = 5;
    RandomEsAdversary adversary(cfg, opt, seed++);
    execute_run(cfg, bench::es_options(), factory, proposals, adversary,
                scratch, trace);
    benchmark::DoNotOptimize(trace.rounds_executed());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomAdversaryRun);

void BM_AdversaryPlanning(benchmark::State& state) {
  const SystemConfig cfg{.n = 33, .t = 16};
  RandomEsOptions opt;
  opt.gst = 64;
  RandomEsAdversary adversary(cfg, opt, 7);
  Round k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adversary.plan_round(k++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdversaryPlanning);

void BM_TraceValidation(benchmark::State& state) {
  const SystemConfig cfg{.n = 9, .t = 4};
  RunTrace trace = run_schedule(cfg, bench::es_options(),
                                bench::default_at2(),
                                distinct_proposals(cfg.n),
                                staggered_chain_schedule(cfg, cfg.t));
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_trace(trace).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceValidation);

void BM_SyncExplorer(benchmark::State& state) {
  const SystemConfig cfg{.n = 3, .t = 1};
  for (auto _ : state) {
    SyncRunExplorer explorer(cfg, bench::default_at2(),
                             distinct_proposals(cfg.n));
    const auto stats = explorer.explore(cfg.t + 2);
    benchmark::DoNotOptimize(stats.runs);
    state.SetItemsProcessed(state.items_processed() + stats.runs);
  }
}
BENCHMARK(BM_SyncExplorer);

void BM_Af2EventualDecision(benchmark::State& state) {
  const Round k = static_cast<Round>(state.range(0));
  const SystemConfig cfg{.n = 10, .t = 3};
  const RunSchedule s =
      async_prefix_schedule(cfg, k + 1, ProcessSet{0, 1}, 2);
  const std::vector<Value> proposals = distinct_proposals(cfg.n);
  for (auto _ : state) {
    RunTrace trace = run_schedule(cfg, bench::es_options(), af2_factory(),
                                  proposals, s);
    benchmark::DoNotOptimize(trace.rounds_executed());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Af2EventualDecision)->Arg(0)->Arg(4)->Arg(8);

// --- wire codec --------------------------------------------------------------

void BM_WireEncodeEnvelope2Legacy(benchmark::State& state) {
  const NetEnvelope env = representative_envelope();
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    std::vector<std::uint8_t> frame = encode_envelope_frame2(77, env);
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["allocs/frame"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeEnvelope2Legacy);

void BM_WireEncodeEnvelope2Pooled(benchmark::State& state) {
  const NetEnvelope env = representative_envelope();
  WireWriter writer;
  encode_envelope_frame2_into(77, env, writer);  // warm the capacity
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    writer.clear();
    encode_envelope_frame2_into(77, env, writer);
    benchmark::DoNotOptimize(writer.data());
  }
  state.counters["allocs/frame"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeEnvelope2Pooled);

void BM_WireDecodeEnvelope2(benchmark::State& state) {
  const std::vector<std::uint8_t> frame =
      encode_envelope_frame2(77, representative_envelope());
  FrameParser parser;
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    parser.feed(frame.data(), frame.size());
    std::optional<Frame> decoded = parser.next();
    benchmark::DoNotOptimize(decoded.has_value());
  }
  state.counters["allocs/frame"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeEnvelope2);

/// Deterministic wire-path measurement persisted to BENCH_e10_wire.json,
/// run before google-benchmark so the alloc counter sees one thread.
bool run_wire_measurement() {
  constexpr int kCodecIters = 20'000;
  constexpr int kBacklog = 4'000;

  const NetEnvelope env = representative_envelope();
  const CodecSample legacy = measure_codec(kCodecIters, [&](int i) {
    std::vector<std::uint8_t> frame =
        encode_envelope_frame2(static_cast<std::uint64_t>(i), env);
    benchmark::DoNotOptimize(frame.data());
  });
  WireWriter writer;
  const CodecSample pooled = measure_codec(kCodecIters, [&](int i) {
    writer.clear();
    encode_envelope_frame2_into(static_cast<std::uint64_t>(i), env, writer);
    benchmark::DoNotOptimize(writer.data());
  });
  const std::vector<std::uint8_t> one_frame =
      encode_envelope_frame2(77, env);
  FrameParser parser;
  const CodecSample decode = measure_codec(kCodecIters, [&](int) {
    parser.feed(one_frame.data(), one_frame.size());
    std::optional<Frame> decoded = parser.next();
    benchmark::DoNotOptimize(decoded.has_value());
  });

  const LoadedLinkStats link = measure_loaded_link(kBacklog);

  // The gates.  Before this PR the flush loop issued exactly one write_all
  // per frame, so frames/syscall >= 4 IS the >= 4x syscall reduction; the
  // alloc gate compares the two encoder forms head to head.
  const bool alloc_gate =
      legacy.allocs_per_frame >= 5.0 * pooled.allocs_per_frame &&
      legacy.allocs_per_frame > 0;
  const bool syscall_gate = link.frames_per_syscall >= 4.0;
  const bool ok = alloc_gate && syscall_gate && link.completed;

  bench::JsonWriter json(bench::artifact_path("BENCH_e10_wire.json"));
  json.begin_object();
  json.key("bench").value("e10_wire");
  json.key("codec").begin_object();
  json.key("encode_legacy_ns_per_frame").value(legacy.ns_per_frame);
  json.key("encode_legacy_allocs_per_frame").value(legacy.allocs_per_frame);
  json.key("encode_pooled_ns_per_frame").value(pooled.ns_per_frame);
  json.key("encode_pooled_allocs_per_frame").value(pooled.allocs_per_frame);
  json.key("decode_ns_per_frame").value(decode.ns_per_frame);
  json.key("decode_allocs_per_frame").value(decode.allocs_per_frame);
  json.key("alloc_improvement")
      .value(pooled.allocs_per_frame > 0
                 ? legacy.allocs_per_frame / pooled.allocs_per_frame
                 : legacy.allocs_per_frame);  // pooled path hit zero
  json.end_object();
  json.key("loaded_link").begin_object();
  json.key("backlog_envelopes").value(kBacklog);
  json.key("frames_flushed").value(link.frames);
  json.key("flush_syscalls").value(link.syscalls);
  json.key("frames_per_syscall").value(link.frames_per_syscall);
  json.key("legacy_frames_per_syscall").value(1.0);  // one write per frame
  json.key("syscall_improvement").value(link.frames_per_syscall);
  json.key("all_flushed").value(link.completed);
  json.end_object();
  json.key("alloc_gate_5x").value(alloc_gate);
  json.key("syscall_gate_4x").value(syscall_gate);
  json.key("ok").value(ok);
  json.end_object();

  std::fprintf(stderr,
               "E10-wire encode legacy %.0f ns/frame (%.2f allocs) vs pooled "
               "%.0f ns/frame (%.2f allocs); decode %.0f ns/frame (%.2f "
               "allocs)\n",
               legacy.ns_per_frame, legacy.allocs_per_frame,
               pooled.ns_per_frame, pooled.allocs_per_frame,
               decode.ns_per_frame, decode.allocs_per_frame);
  std::fprintf(stderr,
               "E10-wire loaded link: %ld frames over %ld syscalls = %.1f "
               "frames/syscall (legacy anchor 1.0) %s\n",
               link.frames, link.syscalls, link.frames_per_syscall,
               ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace
}  // namespace indulgence

int main(int argc, char** argv) {
  const bool wire_ok = indulgence::run_wire_measurement();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return wire_ok ? 0 : 1;
}
