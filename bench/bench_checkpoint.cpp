// Checkpoint micro-benchmarks (google-benchmark): coordinated save/restore
// throughput vs state size and world size — the empirical counterpart of
// the model's O_i and R_i constants.
#include <benchmark/benchmark.h>

#include "checkpoint/checkpointer.h"
#include "checkpoint/state_buffer.h"
#include "minimpi/runtime.h"

using namespace sompi;

namespace {

void BM_CoordinatedSave(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const auto doubles_per_rank = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    MemoryStore store;
    const mpi::RunResult r = mpi::Runtime::run(world, [&](mpi::Comm& comm) {
      Checkpointer ck(&store, "bench");
      StateWriter w;
      w.write<int>(comm.rank());
      w.write_vec(std::vector<double>(doubles_per_rank, 1.5));
      ck.save(comm, w.take());
    });
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * world *
                          static_cast<std::int64_t>(doubles_per_rank) * 8);
}

void BM_SaveRestoreCycle(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const std::size_t doubles_per_rank = 16384;
  for (auto _ : state) {
    MemoryStore store;
    const mpi::RunResult r = mpi::Runtime::run(world, [&](mpi::Comm& comm) {
      Checkpointer ck(&store, "bench");
      StateWriter w;
      w.write_vec(std::vector<double>(doubles_per_rank, 2.5));
      ck.save(comm, w.take());
      const auto blob = ck.load_latest(comm);
      benchmark::DoNotOptimize(blob);
    });
    benchmark::DoNotOptimize(r);
  }
}

void BM_S3SimOverhead(benchmark::State& state) {
  // The accounting wrapper's overhead over the raw store.
  const std::vector<std::byte> blob(65536);
  S3Sim s3;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string key = std::string("k").append(std::to_string(i++ % 64));
    s3.put(key, blob);
    benchmark::DoNotOptimize(s3.get(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * 65536);
}

}  // namespace

BENCHMARK(BM_CoordinatedSave)
    ->Args({2, 4096})
    ->Args({2, 262144})
    ->Args({8, 4096})
    ->Args({8, 262144})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaveRestoreCycle)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S3SimOverhead)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
