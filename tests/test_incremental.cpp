#include "checkpoint/incremental.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "minimpi/runtime.h"

namespace sompi {
namespace {

std::vector<std::byte> make_state(std::size_t bytes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> s(bytes);
  for (auto& b : s) b = static_cast<std::byte>(rng.uniform_index(256));
  return s;
}

TEST(Incremental, HasSnapshotProbesTheCommitMarker) {
  MemoryStore store;
  mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc0", /*block_size=*/256);
    EXPECT_FALSE(ck.has_snapshot(comm));
    ck.save(comm, make_state(600, 3 + comm.rank()));
    EXPECT_TRUE(ck.has_snapshot(comm));
    if (comm.rank() == 0) {
      EXPECT_TRUE(ck.has_snapshot());
    }
  });
}

TEST(Incremental, FirstSaveUploadsEverything) {
  MemoryStore store;
  mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc1", /*block_size=*/256);
    const auto state = make_state(1000, 5 + comm.rank());
    EXPECT_EQ(ck.save(comm, state), 0);
    EXPECT_EQ(ck.bytes_uploaded(), ck.bytes_logical());
    const auto back = ck.load_latest(comm);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, state);
  });
}

TEST(Incremental, UnchangedBlocksAreNotReuploaded) {
  MemoryStore store;
  mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc2", 256);
    auto state = make_state(1024, 7 + comm.rank());  // 4 blocks
    ck.save(comm, state);
    const auto after_first = ck.bytes_uploaded();

    // Mutate exactly one block.
    state[300] = static_cast<std::byte>(~std::to_integer<unsigned>(state[300]));
    ck.save(comm, state);
    EXPECT_EQ(ck.bytes_uploaded() - after_first, 256u);  // one block only

    const auto back = ck.load_latest(comm);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, state);  // mixed-version reconstruction is exact
  });
}

TEST(Incremental, IdenticalSaveUploadsNothing) {
  MemoryStore store;
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc3", 128);
    const auto state = make_state(1000, 9);
    ck.save(comm, state);
    const auto once = ck.bytes_uploaded();
    ck.save(comm, state);
    EXPECT_EQ(ck.bytes_uploaded(), once);
    const auto back = ck.load_latest(comm);
    EXPECT_EQ(*back, state);
  });
}

TEST(Incremental, GrowingStateForcesFullUpload) {
  MemoryStore store;
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc4", 128);
    ck.save(comm, make_state(512, 3));
    const auto before = ck.bytes_uploaded();
    const auto bigger = make_state(1024, 3);
    ck.save(comm, bigger);
    // Block count changed: no hash reuse possible.
    EXPECT_EQ(ck.bytes_uploaded() - before, 1024u);
    EXPECT_EQ(*ck.load_latest(comm), bigger);
  });
}

TEST(Incremental, RestartedProcessReuploadsButRestoresCorrectly) {
  MemoryStore store;
  const auto v0 = make_state(768, 13);
  auto v1 = v0;
  v1[10] = std::byte{0xAA};

  mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc5", 256);
    ck.save(comm, v0);
  });
  // Fresh object (new process after a kill): no in-memory hashes.
  mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc5", 256);
    const auto restored = ck.load_latest(comm);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(*restored, v0);
    ck.save(comm, v1);
    EXPECT_EQ(ck.bytes_uploaded(), 768u);  // full re-upload, by design
    EXPECT_EQ(*ck.load_latest(comm), v1);
  });
}

TEST(Incremental, UncommittedSnapshotIgnored) {
  MemoryStore store;
  // A torn save: blocks + manifest but no COMMIT.
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc6", 128);
    EXPECT_FALSE(ck.load_latest(comm).has_value());
    ck.save(comm, make_state(300, 1));
  });
  store.remove("inc6/v0/COMMIT");
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc6", 128);
    EXPECT_FALSE(ck.load_latest(comm).has_value());
  });
}

TEST(Incremental, DeltaChainAcrossManyVersions) {
  // A long chain of single-block mutations reconstructs exactly and uploads
  // ~one block per version.
  MemoryStore store;
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    IncrementalCheckpointer ck(&store, "inc7", 64);
    auto state = make_state(64 * 8, 21);
    ck.save(comm, state);
    for (int v = 1; v <= 10; ++v) {
      state[static_cast<std::size_t>((v * 64) % state.size())] ^= std::byte{0xFF};
      const auto before = ck.bytes_uploaded();
      ck.save(comm, state);
      EXPECT_EQ(ck.bytes_uploaded() - before, 64u) << "version " << v;
      EXPECT_EQ(*ck.load_latest(comm), state);
    }
  });
}

TEST(Incremental, RejectsBadConfig) {
  MemoryStore store;
  EXPECT_THROW(IncrementalCheckpointer(&store, "a/b"), PreconditionError);
  EXPECT_THROW(IncrementalCheckpointer(&store, ""), PreconditionError);
  EXPECT_THROW(IncrementalCheckpointer(&store, "ok", 16), PreconditionError);
}

}  // namespace
}  // namespace sompi
