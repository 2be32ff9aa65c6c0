// Multi-level checkpoint flush benchmark (DESIGN.md §11).
// Runs the same checkpointed mini-app twice over a deliberately slow remote
// store — once flushing synchronously inside save(), once draining the cache
// asynchronously — and reports how long the application was blocked inside
// save() in each mode. The async pass must overlap the remote upload with
// compute: its blocked-in-save time has to come in strictly below the sync
// pass, which pays every simulated remote round-trip on the critical path.
// That overlap inequality is the acceptance gate and runs on every
// invocation; it is timing-based but the margin is structural (the sync pass
// sleeps ranks × puts × kRemotePutDelay on the save path, the async pass
// sleeps none of it), so it holds on any loaded runner.
//
//   bench_multilevel_ckpt [--json <path>] [--check <baseline.json>]
//
// --check additionally gates the deterministic counters (saves, flushes,
// bytes before/after compression, remote puts, compression CPU) against the
// committed baseline exactly — they are pure functions of the workload
// constants, so the gate is exact on any machine.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "checkpoint/multilevel.h"
#include "checkpoint/storage.h"
#include "common/rng.h"
#include "minimpi/runtime.h"

using namespace sompi;

namespace {

constexpr int kRanks = 4;
constexpr int kSaves = 6;
constexpr std::size_t kBlobLen = 64 * 1024;
constexpr auto kRemotePutDelay = std::chrono::milliseconds(3);
constexpr auto kComputeDelay = std::chrono::milliseconds(2);

/// A remote store with simulated upload latency: every put sleeps before
/// delegating to the wrapped S3-sim, so a synchronous flush provably stalls
/// the save path while an async one hides the stall behind compute.
class SlowStore final : public StorageBackend {
 public:
  explicit SlowStore(StorageBackend* inner) : inner_(inner) {}

  void put(const std::string& key, std::span<const std::byte> bytes) override {
    std::this_thread::sleep_for(kRemotePutDelay);
    inner_->put(key, bytes);
  }
  std::optional<std::vector<std::byte>> get(const std::string& key) const override {
    return inner_->get(key);
  }
  bool exists(const std::string& key) const override { return inner_->exists(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  void remove(const std::string& key) override { inner_->remove(key); }
  std::uint64_t bytes_stored() const override { return inner_->bytes_stored(); }

 private:
  StorageBackend* inner_;
};

/// Deterministic, RLE-friendly rank state: runs interleaved with noise.
std::vector<std::byte> rank_blob(int version, int rank) {
  std::vector<std::byte> b(kBlobLen);
  Rng rng(0x6E43ull + static_cast<std::uint64_t>(version) * 131u +
          static_cast<std::uint64_t>(rank));
  std::size_t i = 0;
  while (i < b.size()) {
    if (rng.bernoulli(0.5)) {
      const std::byte v{static_cast<unsigned char>(rng.uniform_index(256))};
      const std::size_t n = std::min(b.size() - i, 1 + rng.uniform_index(64));
      for (std::size_t j = 0; j < n; ++j) b[i++] = v;
    } else {
      b[i++] = std::byte{static_cast<unsigned char>(rng.uniform_index(256))};
    }
  }
  return b;
}

struct PassResult {
  double pass_ms = 0.0;  ///< whole mpi run, wall clock
  double save_ms = 0.0;  ///< rank 0's cumulative time blocked inside save()
  FlushStats flush;
  std::uint64_t remote_puts = 0;
  std::uint64_t remote_bytes = 0;
};

PassResult run_pass(bool async_flush) {
  S3Sim s3;
  SlowStore remote(&s3);
  MemoryStore cache;
  MultiLevelConfig config;
  config.cache = &cache;
  config.redundancy = RedundancyScheme::kXor;
  config.compression.mode = CompressionMode::kRle;
  config.compression.cpu_seconds_per_gb = 8.0;
  config.async_flush = async_flush;

  PassResult r;
  {
    MultiLevelCheckpointer ml(&remote, "bench", config);
    const auto t0 = std::chrono::steady_clock::now();
    const mpi::RunResult run = mpi::Runtime::run(kRanks, [&](mpi::Comm& comm) {
      for (int version = 0; version < kSaves; ++version) {
        std::this_thread::sleep_for(kComputeDelay);  // the app computing
        const auto blob = rank_blob(version, comm.rank());
        const auto s0 = std::chrono::steady_clock::now();
        (void)ml.save(comm, blob);
        if (comm.rank() == 0)
          r.save_ms +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() - s0).count() *
              1e3;
      }
    });
    ml.wait_flush();
    r.pass_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() * 1e3;
    if (!run.completed) {
      std::fprintf(stderr, "FAIL: checkpointed mini-app did not complete\n");
      std::exit(2);
    }
    r.flush = ml.flush_stats();
  }
  r.remote_puts = s3.put_count();
  r.remote_bytes = s3.bytes_uploaded();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string check_path = bench::arg_value(argc, argv, "--check");

  bench::banner("multilevel_ckpt",
                "Cache+XOR+S3 checkpoint hierarchy: sync vs async flush over a slow remote");

  bool ok = true;
  std::vector<bench::JsonResult> results;
  std::printf("%-8s %10s %12s %10s %12s %12s %12s\n", "case", "pass_ms", "in_save_ms",
              "flushes", "raw_bytes", "wire_bytes", "remote_puts");

  PassResult sync;
  PassResult async;
  for (const bool is_async : {false, true}) {
    const PassResult r = run_pass(is_async);
    (is_async ? async : sync) = r;
    const char* name = is_async ? "async" : "sync";
    std::printf("%-8s %10.2f %12.2f %10llu %12llu %12llu %12llu\n", name, r.pass_ms,
                r.save_ms, static_cast<unsigned long long>(r.flush.flushes_completed),
                static_cast<unsigned long long>(r.flush.bytes_before_compression),
                static_cast<unsigned long long>(r.flush.bytes_flushed),
                static_cast<unsigned long long>(r.remote_puts));
    results.push_back(
        {name,
         1,
         r.pass_ms,
         r.pass_ms,
         r.pass_ms,
         {{"in_save_ms", r.save_ms},
          {"saves", static_cast<double>(kSaves)},
          {"flushes_completed", static_cast<double>(r.flush.flushes_completed)},
          {"bytes_before_compression", static_cast<double>(r.flush.bytes_before_compression)},
          {"bytes_flushed", static_cast<double>(r.flush.bytes_flushed)},
          {"remote_puts", static_cast<double>(r.remote_puts)},
          {"compression_cpu_us", r.flush.compression_cpu_seconds * 1e6}}});
  }

  // Both passes flush identical bytes: the async drain changes when the
  // upload happens, never what is uploaded.
  if (async.remote_bytes != sync.remote_bytes || async.remote_puts != sync.remote_puts) {
    std::fprintf(stderr, "FAIL: async flushed %llu bytes / %llu puts vs sync %llu / %llu\n",
                 static_cast<unsigned long long>(async.remote_bytes),
                 static_cast<unsigned long long>(async.remote_puts),
                 static_cast<unsigned long long>(sync.remote_bytes),
                 static_cast<unsigned long long>(sync.remote_puts));
    ok = false;
  }
  // The acceptance gate: async flushing must take the remote upload off the
  // save path. The sync pass is blocked in save() for every simulated remote
  // round-trip; the async pass only pays the cache commit.
  if (async.save_ms >= sync.save_ms) {
    std::fprintf(stderr,
                 "FAIL: async pass blocked %.2f ms in save(), not below sync's %.2f ms — "
                 "the flush is not overlapping compute\n",
                 async.save_ms, sync.save_ms);
    ok = false;
  } else {
    bench::note("async flush overlap: blocked-in-save " +
                std::to_string(async.save_ms) + " ms vs sync " +
                std::to_string(sync.save_ms) + " ms");
  }

  if (!check_path.empty()) {
    const std::optional<std::string> baseline = bench::read_baseline(check_path);
    if (!baseline) return 2;
    // Exact gate on the deterministic counters only (timing is not gated).
    const auto gated = [](const std::string& key) { return key != "in_save_ms"; };
    if (!bench::counters_match(results, *baseline, check_path, gated, 6)) ok = false;
    if (ok) bench::note("deterministic-counter check passed against " + check_path);
  }

  if (!json_path.empty()) bench::write_json(json_path, results);
  return ok ? 0 : 1;
}
