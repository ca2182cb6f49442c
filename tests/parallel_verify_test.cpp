// Parallel corpus verification: ParallelFor must cover every index
// exactly once and propagate worker exceptions, and VerifyCorpus must be
// byte-identical between serial and parallel runs over the full corpus —
// the determinism guarantee the --jobs flag advertises.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/parallel_verify.h"
#include "corpus/pairs.h"
#include "support/parallel_for.h"

namespace octopocs {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  support::ParallelFor(kCount, 4,
                       [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialPathRunsInline) {
  std::vector<std::size_t> order;
  support::ParallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, WorkerExceptionIsRethrown) {
  // On both the parallel and the serial path the throw is rethrown to
  // the caller, and only after every other index ran: one failing pair
  // must not abandon the pairs behind it.
  for (const unsigned jobs : {4u, 1u}) {
    SCOPED_TRACE(jobs);
    std::vector<std::atomic<int>> visits(8);
    EXPECT_THROW(support::ParallelFor(8, jobs,
                                      [&](std::size_t i) {
                                        visits[i].fetch_add(1);
                                        if (i == 3) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
                 std::runtime_error);
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  bool ran = false;
  support::ParallelFor(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelVerifyTest, ParallelIsByteIdenticalToSerial) {
  const std::vector<corpus::Pair> pairs = corpus::BuildCorpus();
  const core::PipelineOptions opts;

  const auto serial = core::VerifyCorpus(pairs, opts, 1);
  const auto parallel = core::VerifyCorpus(pairs, opts, 4);

  ASSERT_EQ(serial.size(), pairs.size());
  ASSERT_EQ(parallel.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE(pairs[i].s_name);
    EXPECT_EQ(serial[i].verdict, parallel[i].verdict);
    EXPECT_EQ(serial[i].type, parallel[i].type);
    EXPECT_EQ(serial[i].detail, parallel[i].detail);
    EXPECT_EQ(serial[i].ep_name, parallel[i].ep_name);
    EXPECT_EQ(serial[i].bunch_count, parallel[i].bunch_count);
    EXPECT_EQ(serial[i].reformed_poc, parallel[i].reformed_poc);
    EXPECT_EQ(serial[i].bunch_offsets, parallel[i].bunch_offsets);
  }
}

}  // namespace
}  // namespace octopocs
