#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>

#include "dist/communicator.hpp"
#include "dist/gradient_sync.hpp"
#include "tensor/ops.hpp"
#include "util/numerics.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

// ---------- cost model ----------

TEST(CostModelTest, ZeroForSingleRank) {
  AllReduceCostModel m;
  EXPECT_EQ(m.seconds(1 << 20, 1), 0.0);
}

TEST(CostModelTest, LatencyDominatesSmallMessages) {
  AllReduceCostModel m;
  const double t_small = m.seconds(64, 4);
  // Latency term: 2·3·α = 90 µs; bandwidth term negligible.
  EXPECT_NEAR(t_small, 2 * 3 * m.alpha_seconds, 1e-8);
}

TEST(CostModelTest, BandwidthDominatesLargeMessages) {
  AllReduceCostModel m;
  const std::size_t bytes = 1ull << 30;
  const double t = m.seconds(bytes, 4);
  const double bw_term = 2.0 * 3.0 / 4.0 * bytes / m.beta_bytes_per_second;
  EXPECT_NEAR(t, bw_term, bw_term * 0.01);
}

TEST(CostModelTest, CoalescingWinsForManySmallTensors) {
  // 40 matrices of 64×64 floats: separate vs one fused call.
  AllReduceCostModel m;
  const std::size_t bytes_each = 64 * 64 * 4;
  const double separate = 40 * m.seconds(bytes_each, 4);
  const double fused = m.seconds(40 * bytes_each, 4);
  EXPECT_LT(fused, separate);
  EXPECT_GT(separate / fused, 2.0);
}

// ---------- runtime / all-reduce ----------

class AllReduceRanks : public ::testing::TestWithParam<int> {};

TEST_P(AllReduceRanks, SumsAcrossRanks) {
  const int p = GetParam();
  DistRuntime rt(p);
  std::vector<std::vector<float>> buffers(p);
  rt.run([&](Communicator& comm) {
    auto& buf = buffers[comm.rank()];
    buf.assign(100, 0.0f);
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = static_cast<float>(comm.rank() + 1) * static_cast<float>(i);
    comm.all_reduce_sum(std::span<float>(buf.data(), buf.size()));
  });
  const float rank_sum = p * (p + 1) / 2.0f;
  for (int r = 0; r < p; ++r)
    for (std::size_t i = 0; i < 100; ++i)
      EXPECT_FLOAT_EQ(buffers[r][i], rank_sum * static_cast<float>(i));
}

TEST_P(AllReduceRanks, BitwiseIdenticalAcrossRanks) {
  const int p = GetParam();
  DistRuntime rt(p);
  std::vector<std::vector<float>> buffers(p);
  rt.run([&](Communicator& comm) {
    Rng rng(1000 + comm.rank());
    auto& buf = buffers[comm.rank()];
    buf.resize(257);  // deliberately not divisible by p
    for (float& x : buf) x = rng.uniform(-1.0f, 1.0f);
    comm.all_reduce_sum(std::span<float>(buf.data(), buf.size()));
  });
  for (int r = 1; r < p; ++r) EXPECT_EQ(buffers[r], buffers[0]);
}

TEST_P(AllReduceRanks, ScalarReduce) {
  const int p = GetParam();
  DistRuntime rt(p);
  std::vector<double> results(p);
  rt.run([&](Communicator& comm) {
    results[comm.rank()] = comm.all_reduce_scalar(comm.rank() + 1.0);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_NEAR(results[r], p * (p + 1) / 2.0, 1e-6);
}

TEST_P(AllReduceRanks, Broadcast) {
  const int p = GetParam();
  DistRuntime rt(p);
  std::vector<std::vector<float>> buffers(p);
  rt.run([&](Communicator& comm) {
    auto& buf = buffers[comm.rank()];
    buf.assign(10, static_cast<float>(comm.rank()));
    comm.broadcast(std::span<float>(buf.data(), buf.size()), p - 1);
  });
  for (int r = 0; r < p; ++r)
    for (float x : buffers[r]) EXPECT_EQ(x, static_cast<float>(p - 1));
}

INSTANTIATE_TEST_SUITE_P(Ranks, AllReduceRanks, ::testing::Values(1, 2, 3, 4, 8));

TEST(DistRuntimeTest, StatsCountCallsAndBytes) {
  DistRuntime rt(2);
  rt.run([](Communicator& comm) {
    std::vector<float> buf(50, 1.0f);
    comm.all_reduce_sum(std::span<float>(buf.data(), buf.size()));
    comm.all_reduce_sum(std::span<float>(buf.data(), buf.size()));
  });
  const CommStats agg = rt.aggregate_stats();
  EXPECT_EQ(agg.all_reduce_calls, 2u);
  EXPECT_EQ(agg.all_reduce_bytes, 2u * 50u * sizeof(float));
  EXPECT_GT(agg.modeled_seconds, 0.0);
}

TEST(DistRuntimeTest, ExceptionPropagates) {
  DistRuntime rt(1);
  EXPECT_THROW(
      rt.run([](Communicator&) { throw Error("rank failure"); }), Error);
}

TEST(DistRuntimeTest, SequentialRunsReuseRuntime) {
  DistRuntime rt(2);
  for (int iter = 0; iter < 3; ++iter) {
    std::atomic<int> count{0};
    rt.run([&](Communicator& comm) {
      comm.barrier();
      ++count;
    });
    EXPECT_EQ(count.load(), 2);
  }
}

// ---------- gradient sync ----------

/// Fill a store with rank-dependent gradients.
void fill_grads(ParameterStore& store, int rank) {
  Rng rng(77 + rank);
  for (auto& p : store.params())
    p.grad = Matrix::random_normal(p.value.rows(), p.value.cols(), rng);
}

ParameterStore make_store() {
  ParameterStore s;
  s.create("a", 8, 8);
  s.create("b", 1, 8);
  s.create("c", 16, 4);
  return s;
}

class SyncStrategies : public ::testing::TestWithParam<SyncStrategy> {};

TEST_P(SyncStrategies, ProducesMeanGradient) {
  const int p = 4;
  DistRuntime rt(p);
  std::vector<ParameterStore> stores(p);
  for (auto& s : stores) {
    s.create("a", 8, 8);
    s.create("b", 1, 8);
    s.create("c", 16, 4);
  }
  rt.run([&](Communicator& comm) {
    fill_grads(stores[comm.rank()], comm.rank());
    synchronize_gradients(comm, stores[comm.rank()], GetParam());
  });
  // Expected mean gradient computed directly.
  std::vector<ParameterStore> refs(p);
  for (int r = 0; r < p; ++r) {
    refs[r].create("a", 8, 8);
    refs[r].create("b", 1, 8);
    refs[r].create("c", 16, 4);
    fill_grads(refs[r], r);
  }
  // Compare each parameter's synced grad against the rank-mean.
  for (std::size_t idx = 0; idx < 3; ++idx) {
    auto get = [&](ParameterStore& s, std::size_t i) -> Parameter& {
      auto it = s.params().begin();
      std::advance(it, i);
      return *it;
    };
    Matrix mean = get(refs[0], idx).grad;
    for (int r = 1; r < p; ++r) add_inplace(mean, get(refs[r], idx).grad);
    for (float& x : mean.flat()) x /= p;
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(allclose(get(stores[r], idx).grad, mean, 1e-5f, 1e-4f));
  }
}

TEST_P(SyncStrategies, SingleRankIsIdentityDividedByOne) {
  DistRuntime rt(1);
  ParameterStore store = make_store();
  fill_grads(store, 0);
  const auto before = store.flatten_grads();
  rt.run([&](Communicator& comm) {
    synchronize_gradients(comm, store, GetParam());
  });
  EXPECT_EQ(store.flatten_grads(), before);
}

INSTANTIATE_TEST_SUITE_P(Strategies, SyncStrategies,
                         ::testing::Values(SyncStrategy::kPerTensor,
                                           SyncStrategy::kCoalesced));

TEST(GradientSyncTest, CheckNumericsNamesPoisonedParameter) {
  const int p = 2;
  DistRuntime rt(p);
  std::vector<ParameterStore> stores(p);
  for (auto& s : stores) {
    s.create("w0", 2, 2);
    s.create("w1", 2, 2);
  }
  for (int r = 0; r < p; ++r)
    for (auto& param : stores[r].params())
      for (float& g : param.grad.flat()) g = 1.0f;
  // One rank contributes a NaN to w1; the all-reduce spreads it to every
  // replica, so the post-sync check fires on all ranks.
  auto it = stores[1].params().begin();
  std::advance(it, 1);
  it->grad.data()[0] = std::nanf("");
  set_check_numerics(true);
  try {
    rt.run([&](Communicator& comm) {
      synchronize_gradients(comm, stores[comm.rank()],
                            SyncStrategy::kPerTensor);
    });
    set_check_numerics(false);
    FAIL() << "expected trkx::Error naming the poisoned parameter";
  } catch (const Error& e) {
    set_check_numerics(false);
    EXPECT_NE(std::string(e.what()).find("parameter 'w1'"), std::string::npos)
        << e.what();
  }
}

TEST(GradientSyncTest, StrategiesAgreeWithEachOther) {
  const int p = 3;
  for (auto strategy : {SyncStrategy::kPerTensor, SyncStrategy::kCoalesced}) {
    DistRuntime rt(p);
    std::vector<ParameterStore> stores(p);
    for (auto& s : stores) {
      s.create("w", 6, 6);
      s.create("b", 1, 6);
    }
    rt.run([&](Communicator& comm) {
      fill_grads(stores[comm.rank()], comm.rank());
      synchronize_gradients(comm, stores[comm.rank()], strategy);
    });
    static std::vector<float> per_tensor_result;
    if (strategy == SyncStrategy::kPerTensor)
      per_tensor_result = stores[0].flatten_grads();
    else
      EXPECT_EQ(stores[0].flatten_grads(), per_tensor_result);
  }
}

TEST(GradientSyncTest, CoalescedUsesOneCall) {
  DistRuntime rt(2);
  std::vector<ParameterStore> stores(2);
  for (auto& s : stores) {
    s.create("a", 4, 4);
    s.create("b", 4, 4);
    s.create("c", 4, 4);
  }
  rt.run([&](Communicator& comm) {
    synchronize_gradients(comm, stores[comm.rank()], SyncStrategy::kCoalesced);
  });
  EXPECT_EQ(rt.aggregate_stats().all_reduce_calls, 1u);

  DistRuntime rt2(2);
  rt2.run([&](Communicator& comm) {
    synchronize_gradients(comm, stores[comm.rank()], SyncStrategy::kPerTensor);
  });
  EXPECT_EQ(rt2.aggregate_stats().all_reduce_calls, 3u);
}

TEST(GradientSyncTest, CoalescedModeledTimeIsLower) {
  // The paper's Section III-D claim, via the cost model: same bytes, fewer
  // α terms.
  DistRuntime rt_sep(4), rt_coal(4);
  std::vector<ParameterStore> s1(4), s2(4);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 20; ++i) {
      // Appended, not "p" + std::to_string(i): GCC 12's -Wrestrict
      // misreads that overload's insert at -O3.
      std::string name = "p";
      name += std::to_string(i);
      s1[r].create(name, 64, 64);
      s2[r].create(name, 64, 64);
    }
  }
  rt_sep.run([&](Communicator& comm) {
    synchronize_gradients(comm, s1[comm.rank()], SyncStrategy::kPerTensor);
  });
  rt_coal.run([&](Communicator& comm) {
    synchronize_gradients(comm, s2[comm.rank()], SyncStrategy::kCoalesced);
  });
  EXPECT_LT(rt_coal.aggregate_stats().modeled_seconds,
            rt_sep.aggregate_stats().modeled_seconds);
}

}  // namespace
}  // namespace trkx
