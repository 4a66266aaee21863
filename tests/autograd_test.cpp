#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "autograd/gradcheck.hpp"
#include "autograd/tape.hpp"
#include "util/numerics.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

/// Helper: gradcheck a unary tape op through mean_square reduction.
template <typename OpFn>
GradcheckResult check_unary(OpFn op, std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  Rng rng(seed);
  Matrix x = Matrix::random_normal(rows, cols, rng, 0.0f, 1.0f);
  return gradcheck(
      [&op](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var y = op(tape, x);
        Var loss = tape.mean_square(y);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
        }
        return v;
      },
      {x});
}

TEST(TapeTest, LeafValueAndGradAccess) {
  Tape tape;
  Var x = tape.leaf(Matrix{{1, 2}}, true);
  EXPECT_EQ(x.value()(0, 1), 2.0f);
  EXPECT_TRUE(x.requires_grad());
  EXPECT_THROW(x.grad(), Error);  // before backward
}

TEST(TapeTest, BackwardOnNonScalarThrows) {
  Tape tape;
  Var x = tape.leaf(Matrix{{1, 2}}, true);
  EXPECT_THROW(tape.backward(x), Error);
}

TEST(TapeTest, BackwardTwiceThrows) {
  Tape tape;
  Var x = tape.leaf(Matrix{{1.0f}}, true);
  Var loss = tape.mean_square(x);
  tape.backward(loss);
  EXPECT_THROW(tape.backward(loss), Error);
}

TEST(TapeTest, NoGradForConstantBranch) {
  Tape tape;
  Var c = tape.leaf(Matrix{{1, 2}}, false);
  Var x = tape.leaf(Matrix{{3, 4}}, true);
  Var y = tape.add(c, x);
  Var loss = tape.mean_square(y);
  tape.backward(loss);
  EXPECT_FALSE(tape.has_grad(c));
  EXPECT_TRUE(tape.has_grad(x));
}

TEST(TapeTest, GradAccumulatesAcrossUses) {
  // loss = mean_square(x + x) = 4·mean(x²); dloss/dx = 8x/n.
  Tape tape;
  Matrix xv{{1.0f, 2.0f}};
  Var x = tape.leaf(xv, true);
  Var y = tape.add(x, x);
  Var loss = tape.mean_square(y);
  tape.backward(loss);
  EXPECT_NEAR(x.grad()(0, 0), 8.0f * 1.0f / 2.0f, 1e-5f);
  EXPECT_NEAR(x.grad()(0, 1), 8.0f * 2.0f / 2.0f, 1e-5f);
}

// ---------- gradchecks per op ----------

TEST(Gradcheck, Matmul) {
  Rng rng(1);
  Matrix a = Matrix::random_normal(3, 4, rng);
  Matrix b = Matrix::random_normal(4, 2, rng);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var a = tape.leaf(in[0], true);
        Var b = tape.leaf(in[1], true);
        Var loss = tape.mean_square(tape.matmul(a, b));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(a.grad());
          grads->push_back(b.grad());
        }
        return v;
      },
      {a, b});
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

TEST(Gradcheck, LinearFused) {
  Rng rng(2);
  Matrix x = Matrix::random_normal(5, 3, rng);
  Matrix w = Matrix::random_normal(3, 4, rng);
  Matrix b = Matrix::random_normal(1, 4, rng);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var w = tape.leaf(in[1], true);
        Var b = tape.leaf(in[2], true);
        Var loss = tape.mean_square(tape.linear(x, w, b));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
          grads->push_back(w.grad());
          grads->push_back(b.grad());
        }
        return v;
      },
      {x, w, b});
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

TEST(Gradcheck, NanGradientFails) {
  const auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        if (grads) grads->push_back(Matrix(1, 2, std::nanf("")));
        return in[0].sum();
      },
      {Matrix{{1.0f, 2.0f}}});
  EXPECT_FALSE(result.passed);
}

TEST(Gradcheck, Relu) {
  // Shift away from 0 to avoid the kink.
  Rng rng(3);
  Matrix x = Matrix::random_normal(4, 4, rng, 0.0f, 1.0f);
  for (float& v : x.flat())
    if (std::fabs(v) < 0.05f) v += 0.2f;
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var loss = tape.mean_square(tape.relu(x));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
        }
        return v;
      },
      {x});
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

TEST(Gradcheck, Tanh) {
  auto r = check_unary(
      [](Tape& t, Var x) { return t.tanh(x); }, 3, 5, 4);
  EXPECT_TRUE(r.passed) << r.max_abs_error;
}

TEST(Gradcheck, Sigmoid) {
  auto r = check_unary(
      [](Tape& t, Var x) { return t.sigmoid(x); }, 4, 3, 5);
  EXPECT_TRUE(r.passed) << r.max_abs_error;
}

TEST(Gradcheck, ScaleSubHadamard) {
  Rng rng(6);
  Matrix a = Matrix::random_normal(3, 3, rng);
  Matrix b = Matrix::random_normal(3, 3, rng);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var a = tape.leaf(in[0], true);
        Var b = tape.leaf(in[1], true);
        Var y = tape.hadamard(tape.sub(a, b), tape.scale(a, 0.5f));
        Var loss = tape.mean_square(y);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(a.grad());
          grads->push_back(b.grad());
        }
        return v;
      },
      {a, b});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, LayerNorm) {
  // The fused op: layer norm of relu(x), so the gradient crosses both.
  Rng rng(7);
  Matrix x = Matrix::random_normal(4, 6, rng, 0.0f, 2.0f);
  Matrix gamma = Matrix::random_normal(1, 6, rng, 1.0f, 0.2f);
  Matrix beta = Matrix::random_normal(1, 6, rng, 0.0f, 0.2f);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var g = tape.leaf(in[1], true);
        Var b = tape.leaf(in[2], true);
        Var loss = tape.mean_square(tape.relu_layer_norm(x, g, b));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
          grads->push_back(g.grad());
          grads->push_back(b.grad());
        }
        return v;
      },
      {x, gamma, beta});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, ConcatAndSlice) {
  Rng rng(8);
  Matrix a = Matrix::random_normal(3, 2, rng);
  Matrix b = Matrix::random_normal(3, 3, rng);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var a = tape.leaf(in[0], true);
        Var b = tape.leaf(in[1], true);
        Var cat = tape.concat_cols({a, b, a});
        Var sl = tape.slice_cols(cat, 1, 5);
        Var loss = tape.mean_square(sl);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(a.grad());
          grads->push_back(b.grad());
        }
        return v;
      },
      {a, b});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, ScaleRows) {
  Rng rng(13);
  Matrix rows = Matrix::random_normal(5, 4, rng);
  Matrix scalars = Matrix::random_normal(5, 1, rng);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var r = tape.leaf(in[0], true);
        Var s = tape.leaf(in[1], true);
        Var loss = tape.mean_square(tape.scale_rows(r, s));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(r.grad());
          grads->push_back(s.grad());
        }
        return v;
      },
      {rows, scalars});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(TapeTest, ScaleRowsShapeMismatchThrows) {
  Tape tape;
  Var r = tape.leaf(Matrix(3, 2), false);
  Var s = tape.leaf(Matrix(2, 1), false);
  EXPECT_THROW(tape.scale_rows(r, s), Error);
}

TEST(Gradcheck, RowGatherAndSegmentSum) {
  Rng rng(9);
  Matrix x = Matrix::random_normal(5, 3, rng);
  const std::vector<std::uint32_t> idx{0, 4, 4, 2, 1, 0};
  auto result = gradcheck(
      [&idx](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var g = tape.row_gather(x, idx);
        Var s = tape.segment_sum(g, {1, 0, 1, 2, 2, 0}, 3);
        Var loss = tape.mean_square(s);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
        }
        return v;
      },
      {x});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, BceWithLogits) {
  Rng rng(10);
  Matrix z = Matrix::random_normal(8, 1, rng);
  const std::vector<float> labels{1, 0, 1, 1, 0, 0, 1, 0};
  auto result = gradcheck(
      [&labels](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var z = tape.leaf(in[0], true);
        Var loss = tape.bce_with_logits(z, labels);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(z.grad());
        }
        return v;
      },
      {z});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, BceWithPosWeightAndSampleWeights) {
  Rng rng(11);
  Matrix z = Matrix::random_normal(6, 1, rng);
  const std::vector<float> labels{1, 0, 1, 0, 1, 0};
  const std::vector<float> weights{1.0f, 2.0f, 0.5f, 1.0f, 1.5f, 3.0f};
  auto result = gradcheck(
      [&](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var z = tape.leaf(in[0], true);
        Var loss = tape.bce_with_logits(z, labels, weights, 4.0f);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(z.grad());
        }
        return v;
      },
      {z});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, ContrastivePairLoss) {
  Rng rng(12);
  Matrix a = Matrix::random_normal(6, 4, rng);
  Matrix b = Matrix::random_normal(6, 4, rng);
  const std::vector<float> labels{1, 0, 1, 0, 0, 1};
  auto result = gradcheck(
      [&labels](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var a = tape.leaf(in[0], true);
        Var b = tape.leaf(in[1], true);
        Var loss = tape.contrastive_pair_loss(a, b, labels, 1.5f);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(a.grad());
          grads->push_back(b.grad());
        }
        return v;
      },
      {a, b});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

// ---------- loss values against hand computations ----------

TEST(LossValues, BceMatchesManual) {
  Tape tape;
  Matrix z{{0.0f}, {2.0f}};
  Var zv = tape.leaf(z, true);
  const std::vector<float> labels{1.0f, 0.0f};
  Var loss = tape.bce_with_logits(zv, labels);
  // -log(σ(0)) = log 2; -log(1-σ(2)) = log(1+e²) - 0... manual:
  const double l0 = std::log(2.0);
  const double l1 = 2.0 + std::log1p(std::exp(-2.0));
  EXPECT_NEAR(loss.value()(0, 0), (l0 + l1) / 2.0, 1e-5);
}

TEST(LossValues, BceGradIsSigmoidMinusLabel) {
  Tape tape;
  Matrix z{{0.5f}, {-1.0f}};
  Var zv = tape.leaf(z, true);
  Var loss = tape.bce_with_logits(zv, {1.0f, 0.0f});
  tape.backward(loss);
  const float s0 = 1.0f / (1.0f + std::exp(-0.5f));
  const float s1 = 1.0f / (1.0f + std::exp(1.0f));
  EXPECT_NEAR(zv.grad()(0, 0), (s0 - 1.0f) / 2.0f, 1e-5f);
  EXPECT_NEAR(zv.grad()(1, 0), s1 / 2.0f, 1e-5f);
}

TEST(LossValues, ContrastiveZeroWhenPositivesCoincideAndNegativesFar) {
  Tape tape;
  Matrix a{{0, 0}, {5, 5}};
  Matrix b{{0, 0}, {-5, -5}};
  Var av = tape.leaf(a, true);
  Var bv = tape.leaf(b, true);
  Var loss = tape.contrastive_pair_loss(av, bv, {1.0f, 0.0f}, 1.0f);
  EXPECT_NEAR(loss.value()(0, 0), 0.0f, 1e-5f);
}

TEST(TapeTest, ActivationFloatsCounts) {
  Tape tape;
  Var x = tape.leaf(Matrix(10, 4), false);
  (void)tape.relu(x);
  EXPECT_EQ(tape.activation_floats(), 80u);
}

TEST(TapeTest, BackwardReleasesComputedGradients) {
  Rng rng(161);
  Tape tape;
  Var x = tape.leaf(Matrix::random_normal(4, 3, rng), true);
  Var w = tape.leaf(Matrix::random_normal(3, 2, rng), true);
  Var c = tape.leaf(Matrix::random_normal(4, 2, rng), false);
  Var m = tape.matmul(x, w);
  Var h = tape.tanh(tape.add(m, c));
  Var loss = tape.mean_square(h);
  const Matrix h_before = h.value();
  tape.backward(loss);
  // Leaves on the loss's branch keep their gradients.
  ASSERT_TRUE(tape.has_grad(x));
  ASSERT_TRUE(tape.has_grad(w));
  EXPECT_TRUE(x.grad().same_shape(x.value()));
  EXPECT_TRUE(w.grad().same_shape(w.value()));
  EXPECT_FALSE(tape.has_grad(c));
  // Computed nodes, the loss included, had theirs released; values stay.
  for (Var v : {m, h, loss}) {
    EXPECT_FALSE(tape.has_grad(v));
    try {
      (void)v.grad();
      FAIL() << "grad() of a computed node must throw after backward()";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("released"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(h.value() == h_before);
  EXPECT_TRUE(std::isfinite(loss.value()(0, 0)));
}

TEST(TapeTest, PeakFloatsHoldsOneFrontierOfGradients) {
  Tape tape;
  Var x = tape.leaf(Matrix(4, 3, 0.5f), true);    // 12
  Var w = tape.leaf(Matrix(3, 2, -0.25f), true);  // 6
  Var h = tape.tanh(tape.matmul(x, w));           // 8 + 8
  Var loss = tape.mean_square(h);                 // 1
  EXPECT_EQ(tape.activation_floats(), 35u);
  EXPECT_EQ(tape.peak_floats(), 35u);
  tape.backward(loss);
  // The matmul's gradient (8) is still held when x's (12) and w's (6)
  // arrive, while the root's (1) and h's (8) are gone: 35 + 26. Keeping
  // every gradient would reach 35 + 35.
  EXPECT_EQ(tape.peak_floats(), 61u);
}

/// The gradient floats held at the backward peak of a chain of `depth`
/// MLP hidden blocks (linear, then relu → layer norm), 64 rows of width
/// 16, beyond the activations. The weights are constants, so the input is
/// the only leaf that keeps a gradient.
std::size_t chain_peak_gradient_floats(std::size_t depth) {
  Rng rng(171);
  Tape tape;
  Var h = tape.leaf(Matrix::random_normal(64, 16, rng), true);
  for (std::size_t l = 0; l < depth; ++l) {
    Var w = tape.leaf(Matrix::random_normal(16, 16, rng, 0.0f, 0.25f), false);
    Var b = tape.leaf(Matrix::random_normal(1, 16, rng), false);
    Var gamma = tape.leaf(Matrix(1, 16, 1.0f), false);
    Var beta = tape.leaf(Matrix(1, 16, 0.0f), false);
    h = tape.relu_layer_norm(tape.linear(h, w, b), gamma, beta);
  }
  tape.backward(tape.mean_square(h));
  return tape.peak_floats() - tape.activation_floats();
}

TEST(TapeTest, MlpChainPeakGradientsDoNotGrowWithDepth) {
  // Two 64×16 gradients at once, a node's and the one it pushes into its
  // input, at every depth; keeping them all would hold two per block.
  for (std::size_t depth : {1, 2, 4, 8})
    EXPECT_EQ(chain_peak_gradient_floats(depth), 2u * 64 * 16)
        << depth << " blocks";
}

// ---------- randomized expression gradchecks ----------

/// Property sweep: random compositions of tape ops must all pass
/// gradcheck. Each parameter seeds a different random expression tree
/// built from the op set the IGNN uses.
class RandomExpressionGradcheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpressionGradcheck, Passes) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 13);
  const std::size_t rows = 2 + rng.uniform_index(4);
  const std::size_t cols = 2 + rng.uniform_index(4);
  Matrix x = Matrix::random_normal(rows, cols, rng, 0.0f, 0.8f);
  Matrix w = Matrix::random_normal(cols, cols, rng, 0.0f, 0.5f);
  // Avoid ReLU kinks in the finite-difference sweep.
  for (float& v : x.flat())
    if (std::fabs(v) < 0.05f) v += 0.1f;

  const std::uint64_t recipe = rng.next_u64();
  auto build = [&](Tape& tape, Var xv, Var wv) {
    Var h = tape.matmul(xv, wv);
    std::uint64_t bits = recipe;
    for (int step = 0; step < 4; ++step) {
      switch (bits % 5) {
        case 0: h = tape.tanh(h); break;
        case 1: h = tape.sigmoid(h); break;
        case 2: h = tape.scale(tape.add(h, h), 0.5f); break;
        case 3: h = tape.hadamard(h, tape.sigmoid(h)); break;
        case 4: h = tape.concat_cols({h, h}); h = tape.slice_cols(h, 0, cols); break;
      }
      bits /= 5;
    }
    return tape.mean_square(h);
  };
  auto result = gradcheck(
      [&](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var xv = tape.leaf(in[0], true);
        Var wv = tape.leaf(in[1], true);
        Var loss = build(tape, xv, wv);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(xv.grad());
          grads->push_back(wv.grad());
        }
        return v;
      },
      {x, w});
  EXPECT_TRUE(result.passed)
      << "seed " << seed << " max abs err " << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomExpressionGradcheck,
                         ::testing::Range(0, 12));

TEST(TapeTest, SumOp) {
  Tape tape;
  Var x = tape.leaf(Matrix{{1, 2}, {3, 4}}, true);
  Var s = tape.sum(x);
  EXPECT_FLOAT_EQ(s.value()(0, 0), 10.0f);
  tape.backward(s);
  EXPECT_EQ(x.grad(), (Matrix{{1, 1}, {1, 1}}));
}

TEST(Gradcheck, Add) {
  Rng rng(131);
  Matrix a = Matrix::random_normal(3, 4, rng, 0.0f, 1.0f);
  Matrix b = Matrix::random_normal(3, 4, rng, 0.0f, 1.0f);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var av = tape.leaf(in[0], true);
        Var bv = tape.leaf(in[1], true);
        Var loss = tape.mean_square(tape.add(av, bv));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(av.grad());
          grads->push_back(bv.grad());
        }
        return v;
      },
      {a, b});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, Spmm) {
  Rng rng(137);
  // Fixed sparsity pattern including an empty row (vertex with no edges).
  const CsrMatrix a = CsrMatrix::from_triplets(
      4, 3, {{0, 0, 0.5f}, {0, 2, -1.5f}, {1, 1, 2.0f}, {3, 0, 1.0f}});
  Matrix x = Matrix::random_normal(3, 2, rng, 0.0f, 1.0f);
  auto result = gradcheck(
      [&a](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var xv = tape.leaf(in[0], true);
        Var loss = tape.mean_square(tape.spmm(a, xv));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(xv.grad());
        }
        return v;
      },
      {x});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, Sum) {
  Rng rng(139);
  Matrix x = Matrix::random_normal(3, 5, rng, 0.0f, 1.0f);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var xv = tape.leaf(in[0], true);
        // Compose through tanh so the sum gradient is not trivially all-ones.
        Var loss = tape.sum(tape.tanh(xv));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(xv.grad());
        }
        return v;
      },
      {x});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

TEST(Gradcheck, MeanSquare) {
  Rng rng(149);
  Matrix x = Matrix::random_normal(4, 3, rng, 0.0f, 1.0f);
  auto result = gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var xv = tape.leaf(in[0], true);
        Var loss = tape.mean_square(xv);
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(xv.grad());
        }
        return v;
      },
      {x});
  EXPECT_TRUE(result.passed) << result.max_abs_error;
}

// ---------- TRKX_CHECK_NUMERICS ----------

/// RAII toggle so a throwing test body cannot leave the mode enabled for
/// later tests in the same process.
class ScopedCheckNumerics {
 public:
  explicit ScopedCheckNumerics(bool on) : prev_(check_numerics_enabled()) {
    set_check_numerics(on);
  }
  ~ScopedCheckNumerics() { set_check_numerics(prev_); }

 private:
  bool prev_;
};

TEST(CheckNumerics, OffByDefaultNanPassesSilently) {
  ASSERT_FALSE(check_numerics_enabled());
  Tape tape;
  Matrix bad{{1.0f, 2.0f}};
  bad(0, 1) = std::nanf("");
  Var x = tape.leaf(bad, true);
  Var loss = tape.mean_square(tape.tanh(x));
  tape.backward(loss);  // no throw: checks are opt-in
  EXPECT_TRUE(std::isnan(loss.value()(0, 0)));
}

TEST(CheckNumerics, ForwardNamesOffendingOp) {
  ScopedCheckNumerics guard(true);
  Tape tape;
  Matrix bad{{1.0f, 2.0f}};
  bad(0, 1) = std::nanf("");
  Var x = tape.leaf(bad, true);  // leaves are caller data, not checked
  try {
    tape.tanh(x);
    FAIL() << "expected trkx::Error from forward numerics check";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("forward output of 'tanh'"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckNumerics, BackwardNamesProducingAndReceivingOp) {
  Tape tape;
  Matrix bad{{0.5f, -0.25f}};
  bad(0, 1) = std::nanf("");
  // Record the graph with checks off so the NaN survives the forward pass
  // (tanh propagates it), then enable them for backward only.
  Var x = tape.leaf(bad, true);
  Var y = tape.tanh(x);
  Var loss = tape.mean_square(y);
  ScopedCheckNumerics guard(true);
  try {
    tape.backward(loss);
    FAIL() << "expected trkx::Error from backward numerics check";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite gradient"), std::string::npos) << what;
    EXPECT_NE(what.find("backward of '"), std::string::npos) << what;
  }
}

TEST(CheckNumerics, CleanGraphPassesWithChecksOn) {
  ScopedCheckNumerics guard(true);
  Rng rng(151);
  Tape tape;
  Var x = tape.leaf(Matrix::random_normal(3, 3, rng, 0.0f, 1.0f), true);
  Var loss = tape.mean_square(tape.tanh(x));
  tape.backward(loss);
  EXPECT_TRUE(tape.has_grad(x));
}

}  // namespace
}  // namespace trkx
