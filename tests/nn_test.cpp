#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "autograd/gradcheck.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/codec.hpp"

namespace trkx {
namespace {

// ---------- ParameterStore ----------

TEST(ParameterStoreTest, CreateAndFind) {
  ParameterStore store;
  Parameter& p = store.create("w", 2, 3);
  EXPECT_EQ(p.value.rows(), 2u);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.find("w"), &p);
  EXPECT_EQ(store.find("missing"), nullptr);
  EXPECT_THROW(store.create("w", 1, 1), Error);
}

TEST(ParameterStoreTest, TotalSizeAndZeroGrad) {
  ParameterStore store;
  store.create("a", 2, 2).grad.fill(5.0f);
  store.create("b", 1, 3).grad.fill(2.0f);
  EXPECT_EQ(store.total_size(), 7u);
  store.zero_grad();
  for (const auto& p : store.params())
    for (float g : p.grad.flat()) EXPECT_EQ(g, 0.0f);
}

TEST(ParameterStoreTest, FlattenUnflattenGradsRoundTrip) {
  ParameterStore store;
  Rng rng(1);
  store.create("a", 2, 3).grad = Matrix::random_normal(2, 3, rng);
  store.create("b", 4, 1).grad = Matrix::random_normal(4, 1, rng);
  const auto flat = store.flatten_grads();
  ASSERT_EQ(flat.size(), 10u);
  // Round-trip through a scaled copy.
  auto scaled = flat;
  for (float& x : scaled) x *= 2.0f;
  store.unflatten_grads(scaled);
  const auto flat2 = store.flatten_grads();
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_FLOAT_EQ(flat2[i], 2.0f * flat[i]);
}

TEST(ParameterStoreTest, FlattenValuesOrderIsStable) {
  ParameterStore store;
  store.create("a", 1, 2).value = Matrix{{1, 2}};
  store.create("b", 1, 2).value = Matrix{{3, 4}};
  const auto flat = store.flatten_values();
  EXPECT_EQ(flat, (std::vector<float>{1, 2, 3, 4}));
}

TEST(ParameterStoreTest, UnflattenSizeMismatchThrows) {
  ParameterStore store;
  store.create("a", 1, 2);
  EXPECT_THROW(store.unflatten_grads({1.0f}), Error);
}

TEST(ParameterStoreTest, SaveLoadRoundTrip) {
  ParameterStore a;
  Rng rng(2);
  a.create("x", 3, 3).value = Matrix::random_normal(3, 3, rng);
  a.create("y", 1, 5).value = Matrix::random_normal(1, 5, rng);
  std::stringstream ss;
  a.save(ss);

  ParameterStore b;
  b.create("x", 3, 3);
  b.create("y", 1, 5);
  b.load(ss);
  auto ita = a.params().begin();
  auto itb = b.params().begin();
  for (; ita != a.params().end(); ++ita, ++itb)
    EXPECT_EQ(ita->value, itb->value);
}

TEST(ParameterStoreTest, LoadRejectsWrongLayout) {
  ParameterStore a;
  a.create("x", 2, 2);
  std::stringstream ss;
  a.save(ss);
  ParameterStore b;
  b.create("different", 2, 2);
  EXPECT_THROW(b.load(ss), Error);
}

TEST(ParameterStoreTest, CopyValuesFrom) {
  ParameterStore a, b;
  a.create("x", 2, 2).value.fill(7.0f);
  b.create("x", 2, 2);
  b.copy_values_from(a);
  EXPECT_EQ(b.find("x")->value, a.find("x")->value);
}

// ---------- init ----------

TEST(InitTest, KaimingBounds) {
  Rng rng(3);
  Matrix w(64, 32);
  init_kaiming_uniform(w, rng);
  const float bound = std::sqrt(6.0f / 64.0f);
  for (float x : w.flat()) {
    EXPECT_GE(x, -bound);
    EXPECT_LE(x, bound);
  }
  EXPECT_GT(w.frobenius_norm(), 0.0);
}

TEST(InitTest, XavierBounds) {
  Rng rng(4);
  Matrix w(10, 30);
  init_xavier_uniform(w, rng);
  const float bound = std::sqrt(6.0f / 40.0f);
  for (float x : w.flat()) {
    EXPECT_GE(x, -bound);
    EXPECT_LE(x, bound);
  }
}

// ---------- Linear / MLP ----------

TEST(LinearTest, ForwardShapeAndValue) {
  ParameterStore store;
  Rng rng(5);
  Linear lin(store, "l", 3, 2, rng);
  EXPECT_EQ(store.count(), 2u);  // weight + bias
  store.find("l.weight")->value = Matrix{{1, 0}, {0, 1}, {1, 1}};
  store.find("l.bias")->value = Matrix{{10, 20}};
  TapeContext ctx;
  Var y = lin.forward(ctx, ctx.constant(Matrix{{1, 2, 3}}));
  EXPECT_EQ(y.value(), (Matrix{{14, 25}}));
}

TEST(LinearTest, WrongInputDimThrows) {
  ParameterStore store;
  Rng rng(6);
  Linear lin(store, "l", 3, 2, rng);
  TapeContext ctx;
  EXPECT_THROW(lin.forward(ctx, ctx.constant(Matrix(1, 4))), Error);
}

TEST(MlpTest, LayerCountMatchesConfig) {
  ParameterStore store;
  Rng rng(7);
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 8;
  cfg.output_dim = 2;
  cfg.num_hidden = 3;
  Mlp mlp(store, "m", cfg, rng);
  EXPECT_EQ(mlp.num_linear_layers(), 4u);
  // 4 linears × 2 params.
  EXPECT_EQ(store.count(), 8u);
}

TEST(MlpTest, LayerNormAddsParams) {
  ParameterStore store;
  Rng rng(8);
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 8;
  cfg.output_dim = 2;
  cfg.num_hidden = 2;
  cfg.layer_norm = true;
  Mlp mlp(store, "m", cfg, rng);
  EXPECT_EQ(store.count(), 6u + 4u);  // 3 linears ×2 + 2 LN ×2
}

TEST(MlpTest, OutputShape) {
  ParameterStore store;
  Rng rng(9);
  MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_dim = 16;
  cfg.output_dim = 3;
  cfg.num_hidden = 2;
  cfg.layer_norm = true;
  Mlp mlp(store, "m", cfg, rng);
  TapeContext ctx;
  Rng drng(10);
  Var y = mlp.forward(ctx, ctx.constant(Matrix::random_normal(7, 5, drng)));
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 3u);
  EXPECT_TRUE(y.value().all_finite());
}

TEST(MlpTest, GradcheckThroughWholeNetwork) {
  // Perturb the *input*; parameters are fixed leaves inside scalar_fn.
  ParameterStore store;
  Rng rng(11);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden_dim = 6;
  cfg.output_dim = 2;
  cfg.num_hidden = 1;
  cfg.layer_norm = true;
  Mlp mlp(store, "m", cfg, rng);
  Matrix x = Matrix::random_normal(4, 3, rng);
  auto result = gradcheck(
      [&](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        TapeContext ctx;
        Var xv = ctx.tape().leaf(in[0], true);
        Var y = mlp.forward(ctx, xv);
        Var loss = ctx.tape().mean_square(y);
        const double v = loss.value()(0, 0);
        if (grads) {
          ctx.tape().backward(loss);
          grads->push_back(xv.grad());
        }
        return v;
      },
      {x});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

// ---------- pinned step bytes ----------

/// CRC-32 over one Mlp training step on `rows` input rows (input 14,
/// hidden 32, 2 hidden layers with layer norm, output 8, a mean-square
/// loss): the output, the loss and every parameter gradient, continuing
/// `crc`. Inputs come from random_uniform, so no libm call is on the path.
std::uint32_t mlp_step_digest(std::size_t rows, std::uint32_t crc) {
  ParameterStore store;
  Rng rng(2801);
  MlpConfig cfg;
  cfg.input_dim = 14;
  cfg.hidden_dim = 32;
  cfg.output_dim = 8;
  cfg.num_hidden = 2;
  cfg.layer_norm = true;
  cfg.output_activation = Activation::kNone;
  Mlp mlp(store, "m", cfg, rng);
  // Layer-norm affines away from (1, 0), so gamma and beta shape the bytes.
  for (Parameter& p : store.params()) {
    if (p.name.find(".ln") == std::string::npos) continue;
    p.value = Matrix::random_uniform(p.value.rows(), p.value.cols(), rng,
                                     -1.5f, 1.5f);
  }
  TapeContext ctx;
  Var y = mlp.forward(
      ctx, ctx.constant(Matrix::random_uniform(rows, 14, rng, -2.0f, 2.0f)));
  Var loss = ctx.tape().mean_square(y);
  ctx.backward(loss);
  const auto put = [&crc](const Matrix& m) {
    crc = crc32(m.data(), m.size() * sizeof(float), crc);
  };
  put(y.value());
  put(loss.value());
  for (const Parameter& p : store.params()) put(p.grad);
  return crc;
}

// Checkpoints, perfbench's exact-repeat values and served models all
// depend on the bytes an MLP step computes. These digests pin them on
// every kernel table the host has, at 1 and 3 OpenMP threads: a change to
// the MLP's ops or kernels that moves one byte fails here. avx512 shares
// avx2's digest (it differs only in its GEMM tile, which rounds alike).
TEST(MlpTest, StepBytesArePinned) {
  struct Table {
    kernels::SimdMode mode;
    bool available;
    std::uint32_t digest;
  };
  const Table tables[] = {
      {kernels::SimdMode::kScalar, true, 0x295c30c1u},
      {kernels::SimdMode::kAvx2, kernels::host_has_avx2(), 0x3dcb6dadu},
      {kernels::SimdMode::kAvx512, kernels::host_has_avx512(), 0x3dcb6dadu},
  };
  const kernels::SimdMode mode_before = kernels::mode();
  const int threads_before = omp_get_max_threads();
  for (const Table& t : tables) {
    if (!t.available) continue;
    kernels::set_mode(t.mode);
    for (int threads : {1, 3}) {
      omp_set_num_threads(threads);
      std::uint32_t crc = 0;
      for (std::size_t rows : {1, 7, 600}) crc = mlp_step_digest(rows, crc);
      EXPECT_EQ(crc, t.digest) << kernels::active().name << " at " << threads
                               << " threads: 0x" << std::hex << crc;
    }
  }
  omp_set_num_threads(threads_before);
  kernels::set_mode(mode_before);
}

TEST(MlpTest, ParameterGradientsFlowToStore) {
  ParameterStore store;
  Rng rng(12);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 4;
  cfg.output_dim = 1;
  cfg.num_hidden = 1;
  Mlp mlp(store, "m", cfg, rng);
  store.zero_grad();
  TapeContext ctx;
  Var y = mlp.forward(ctx, ctx.constant(Matrix{{1, 2}, {3, 4}}));
  Var loss = ctx.tape().mean_square(y);
  ctx.backward(loss);
  double grad_norm = 0.0;
  for (const auto& p : store.params())
    grad_norm += p.grad.frobenius_norm();
  EXPECT_GT(grad_norm, 0.0);
}

// ---------- optimizers ----------

TEST(AdamTest, FirstStepIsLrSignedGradient) {
  ParameterStore store;
  Parameter& p = store.create("w", 1, 2);
  p.value = Matrix{{0.0f, 0.0f}};
  p.grad = Matrix{{3.0f, -0.01f}};
  Adam opt(store, AdamOptions{.lr = 0.1f});
  opt.step();
  // Adam's first step is ≈ -lr * sign(grad) regardless of magnitude.
  EXPECT_NEAR(p.value(0, 0), -0.1f, 1e-3f);
  EXPECT_NEAR(p.value(0, 1), 0.1f, 1e-3f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // minimize f(w) = ||w - target||².
  ParameterStore store;
  Parameter& p = store.create("w", 1, 3);
  const Matrix target{{1.0f, -2.0f, 0.5f}};
  Adam opt(store, AdamOptions{.lr = 0.05f});
  for (int iter = 0; iter < 500; ++iter) {
    for (std::size_t j = 0; j < 3; ++j)
      p.grad(0, j) = 2.0f * (p.value(0, j) - target(0, j));
    opt.step();
  }
  EXPECT_TRUE(allclose(p.value, target, 1e-2f, 1e-2f));
}

TEST(OptimizerTest, ClipGradNorm) {
  ParameterStore store;
  Parameter& p = store.create("w", 1, 2);
  p.grad = Matrix{{3.0f, 4.0f}};  // norm 5
  Adam opt(store, AdamOptions{});
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  double post = 0.0;
  for (float g : p.grad.flat()) post += g * g;
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

TEST(OptimizerTest, ClipNoopBelowThreshold) {
  ParameterStore store;
  Parameter& p = store.create("w", 1, 2);
  p.grad = Matrix{{0.3f, 0.4f}};
  Adam opt(store, AdamOptions{});
  opt.clip_grad_norm(10.0);
  EXPECT_EQ(p.grad, (Matrix{{0.3f, 0.4f}}));
}

TEST(AdamTest, StateCheckpointResumesExactly) {
  // Train A for 2n steps; train B for n steps, checkpoint, restore into a
  // fresh optimizer, train n more: identical trajectories.
  auto make = [](ParameterStore& store) {
    store.create("w", 2, 3);
  };
  auto do_steps = [](ParameterStore& store, Adam& opt, int n, int offset) {
    for (int i = 0; i < n; ++i) {
      Rng rng(static_cast<std::uint64_t>(offset + i));
      store.params().front().grad = Matrix::random_normal(2, 3, rng);
      opt.step();
    }
  };
  ParameterStore sa;
  make(sa);
  Adam oa(sa, AdamOptions{.lr = 0.01f});
  do_steps(sa, oa, 10, 0);

  ParameterStore sb;
  make(sb);
  Adam ob1(sb, AdamOptions{.lr = 0.01f});
  do_steps(sb, ob1, 5, 0);
  std::stringstream state, values;
  ob1.save_state(state);
  sb.save(values);

  ParameterStore sc;
  make(sc);
  Adam oc(sc, AdamOptions{.lr = 0.01f});
  sc.load(values);
  oc.load_state(state);
  do_steps(sc, oc, 5, 5);
  EXPECT_EQ(sc.flatten_values(), sa.flatten_values());
}

TEST(AdamTest, LoadStateRejectsWrongLayout) {
  ParameterStore a;
  a.create("w", 2, 2);
  Adam oa(a, AdamOptions{});
  std::stringstream ss;
  oa.save_state(ss);
  ParameterStore b;
  b.create("w", 2, 2);
  b.create("extra", 1, 1);
  Adam ob(b, AdamOptions{});
  EXPECT_THROW(ob.load_state(ss), Error);
}

// ---------- training a tiny regression end to end ----------

TEST(TrainingSmoke, MlpFitsLinearFunction) {
  ParameterStore store;
  Rng rng(20);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 16;
  cfg.output_dim = 1;
  cfg.num_hidden = 1;
  Mlp mlp(store, "m", cfg, rng);
  Adam opt(store, AdamOptions{.lr = 1e-2f});

  Matrix x = Matrix::random_normal(64, 2, rng);
  Matrix target(64, 1);
  for (std::size_t i = 0; i < 64; ++i)
    target(i, 0) = 0.7f * x(i, 0) - 0.3f * x(i, 1);

  double first_loss = 0.0, last_loss = 0.0;
  for (int iter = 0; iter < 200; ++iter) {
    TapeContext ctx;
    Var pred = mlp.forward(ctx, ctx.constant(x));
    Var err = ctx.tape().sub(pred, ctx.constant(target));
    Var loss = ctx.tape().mean_square(err);
    if (iter == 0) first_loss = loss.value()(0, 0);
    last_loss = loss.value()(0, 0);
    opt.zero_grad();
    ctx.backward(loss);
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.05);
}

}  // namespace
}  // namespace trkx
