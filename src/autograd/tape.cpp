#include "autograd/tape.hpp"

#include <algorithm>
#include <memory>

#include <cmath>
#include <cstring>

#include "sparse/spgemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/numerics.hpp"

namespace trkx {

const Matrix& Var::value() const {
  TRKX_CHECK(tape_ != nullptr);
  return tape_->node(*this).value;
}

const Matrix& Var::grad() const {
  TRKX_CHECK(tape_ != nullptr);
  const auto& n = tape_->node(*this);
  if (n.grad.empty()) {
    TRKX_CHECK_MSG(tape_->backward_done_, "grad() read before backward()");
    TRKX_CHECK_MSG(!n.backward, "grad() of computed node '"
                                    << n.op
                                    << "' read after backward(), which "
                                       "released it: only leaves keep "
                                       "their gradients");
    TRKX_CHECK_MSG(false, "grad() of a leaf that received no gradient");
  }
  return n.grad;
}

bool Var::requires_grad() const {
  TRKX_CHECK(tape_ != nullptr);
  return tape_->node(*this).requires_grad;
}

Var Tape::leaf(Matrix value, bool requires_grad) {
  return emit(std::move(value), requires_grad, "leaf", nullptr);
}

Var Tape::emit(Matrix value, bool requires_grad, const char* op,
               std::function<void(Node&)> backward) {
  // tanh/sigmoid emit with a null backward and attach it afterwards, so the
  // "is this a computed op" test keys off the op name, not the closure.
  if (check_numerics_enabled() && std::strcmp(op, "leaf") != 0) {
    TRKX_CHECK_MSG(all_finite(value),
                   "TRKX_CHECK_NUMERICS: non-finite value in forward output of '"
                       << op << "'");
  }
  hold(value.size());
  nodes_.push_back(Node{std::move(value), Matrix{}, requires_grad, op,
                        std::move(backward)});
  return Var(this, nodes_.size() - 1);
}

void Tape::hold(std::size_t floats) {
  live_floats_ += floats;
  peak_floats_ = std::max(peak_floats_, live_floats_);
}

void Tape::accumulate(Var v, Matrix g) {
  if (check_numerics_enabled() && current_backward_op_ != nullptr) {
    TRKX_CHECK_MSG(all_finite(g),
                   "TRKX_CHECK_NUMERICS: non-finite gradient from backward of '"
                       << current_backward_op_ << "' flowing into '"
                       << node(v).op << "'");
  }
  Node& n = node(v);
  if (!n.requires_grad) return;
  if (n.grad.empty()) {
    hold(g.size());
    n.grad = std::move(g);
  } else {
    add_inplace(n.grad, g);
  }
}

std::size_t Tape::activation_floats() const {
  std::size_t total = 0;
  for (const auto& n : nodes_) total += n.value.size();
  return total;
}

Var Tape::matmul(Var a, Var b) {
  Matrix out = trkx::matmul(a.value(), b.value());
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Tape* t = this;
  return emit(std::move(out), rg, "matmul", [t, a, b](Node& n) {
    if (t->node(a).requires_grad)
      t->accumulate(a, matmul_nt(n.grad, b.value()));
    if (t->node(b).requires_grad)
      t->accumulate(b, matmul_tn(a.value(), n.grad));
  });
}

Var Tape::linear(const std::vector<LinearTerm>& terms, Var w, Var bias) {
  TRKX_CHECK(!terms.empty() && !terms.front().inputs.empty());
  const Matrix& wv = w.value();
  const std::size_t out_cols = wv.cols();
  TRKX_CHECK(bias.value().rows() == 1 && bias.value().cols() == out_cols);
  const LinearTerm& first = terms.front();
  const std::size_t rows =
      first.index != nullptr ? first.index->size() : first.inputs[0].rows();
  std::size_t in_cols = 0;
  bool rg = node(w).requires_grad || node(bias).requires_grad;
  for (const LinearTerm& term : terms) {
    TRKX_CHECK_MSG(!term.inputs.empty(), "linear term without inputs");
    const std::size_t term_rows = term.inputs[0].rows();
    for (Var v : term.inputs) {
      TRKX_CHECK_MSG(v.rows() == term_rows, "linear term block has "
                                                << v.rows() << " rows, not "
                                                << term_rows);
      in_cols += v.cols();
      rg = rg || node(v).requires_grad;
    }
    if (term.index == nullptr) {
      TRKX_CHECK_MSG(term_rows == rows, "linear term has " << term_rows
                                                           << " rows, not "
                                                           << rows);
      continue;
    }
    TRKX_CHECK(term.index->size() == rows);
    // Validate before dispatching: exceptions may not cross the kernel's
    // internal OpenMP boundary.
    for (std::uint32_t i : *term.index) {
      TRKX_CHECK_MSG(i < term_rows, "linear term index "
                                        << i << " out of range " << term_rows);
    }
  }
  TRKX_CHECK_MSG(in_cols == wv.rows(), "linear input width "
                                           << in_cols << " vs weight "
                                           << wv.shape_str());

  const kernels::KernelTable& k = kernels::active();
  Matrix out = Matrix::uninit(rows, out_cols);
  const float* b = bias.value().data();
  for (std::size_t i = 0; i < rows; ++i)
    std::memcpy(out.data() + i * out_cols, b, out_cols * sizeof(float));
  std::size_t w_off = 0;  // first element of the current row block of w
  for (const LinearTerm& term : terms) {
    if (term.index == nullptr) {
      for (Var v : term.inputs) {
        k.gemm(v.value().data(), wv.data() + w_off, out.data(), rows,
               v.cols(), out_cols, /*accumulate=*/true);
        w_off += v.cols() * out_cols;
      }
      continue;
    }
    // P = Σ input·W_block on the inputs' own rows, then out += P[index].
    const std::size_t term_rows = term.inputs[0].rows();
    Matrix p = Matrix::uninit(term_rows, out_cols);
    bool acc = false;
    for (Var v : term.inputs) {
      k.gemm(v.value().data(), wv.data() + w_off, p.data(), term_rows,
             v.cols(), out_cols, acc);
      acc = true;
      w_off += v.cols() * out_cols;
    }
    k.row_gather(p.data(), term.index->data(), out.data(), rows, out_cols,
                 /*accumulate=*/true);
  }

  Tape* t = this;
  return emit(std::move(out), rg, "linear", [t, terms, w, bias](Node& n) {
    const kernels::KernelTable& k = kernels::active();
    const Matrix& wv = w.value();
    const std::size_t out_cols = wv.cols();
    const bool w_rg = t->node(w).requires_grad;
    Matrix dw = w_rg ? Matrix::uninit(wv.rows(), out_cols) : Matrix{};
    std::size_t w_off = 0;
    for (const LinearTerm& term : terms) {
      // dP: the output gradient on the term's own rows.
      Matrix reduced;
      if (term.index != nullptr) {
        reduced =
            trkx::segment_sum(n.grad, *term.index, term.inputs[0].rows());
      }
      const Matrix& dp = term.index != nullptr ? reduced : n.grad;
      for (Var v : term.inputs) {
        const std::size_t cols = v.cols();
        if (w_rg) {  // dW_block = inputᵀ·dP: every row block written once
          k.gemm_tn(v.value().data(), dp.data(), dw.data() + w_off, cols,
                    dp.rows(), out_cols, /*accumulate=*/false);
        }
        if (t->node(v).requires_grad) {  // dInput = dP·W_blockᵀ
          Matrix dx = Matrix::uninit(dp.rows(), cols);
          k.gemm_nt(dp.data(), wv.data() + w_off, dx.data(), dp.rows(),
                    out_cols, cols, /*accumulate=*/false);
          t->accumulate(v, std::move(dx));
        }
        w_off += cols * out_cols;
      }
    }
    if (w_rg) t->accumulate(w, std::move(dw));
    if (t->node(bias).requires_grad) t->accumulate(bias, colwise_sum(n.grad));
  });
}

Var Tape::linear(Var x, Var w, Var bias) {
  return linear({LinearTerm{{x}, nullptr}}, w, bias);
}

Var Tape::add(Var a, Var b) {
  Matrix out = trkx::add(a.value(), b.value());
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Tape* t = this;
  return emit(std::move(out), rg, "add", [t, a, b](Node& n) {
    t->accumulate(a, n.grad);
    t->accumulate(b, n.grad);
  });
}

Var Tape::sub(Var a, Var b) {
  Matrix out = trkx::sub(a.value(), b.value());
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Tape* t = this;
  return emit(std::move(out), rg, "sub", [t, a, b](Node& n) {
    t->accumulate(a, n.grad);
    t->accumulate(b, trkx::scale(n.grad, -1.0f));
  });
}

Var Tape::hadamard(Var a, Var b) {
  Matrix out = trkx::hadamard(a.value(), b.value());
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Tape* t = this;
  return emit(std::move(out), rg, "hadamard", [t, a, b](Node& n) {
    if (t->node(a).requires_grad)
      t->accumulate(a, trkx::hadamard(n.grad, b.value()));
    if (t->node(b).requires_grad)
      t->accumulate(b, trkx::hadamard(n.grad, a.value()));
  });
}

Var Tape::scale(Var a, float s) {
  Matrix out = trkx::scale(a.value(), s);
  Tape* t = this;
  return emit(std::move(out), node(a).requires_grad, "scale", [t, a, s](Node& n) {
    t->accumulate(a, trkx::scale(n.grad, s));
  });
}

Var Tape::relu(Var a) {
  const Matrix& x = a.value();
  Matrix out = Matrix::uninit(x.rows(), x.cols());
  kernels::active().relu_fwd(x.data(), out.data(), x.size());
  Tape* t = this;
  return emit(std::move(out), node(a).requires_grad, "relu", [t, a](Node& n) {
    const Matrix& x = a.value();
    TRKX_CHECK(n.grad.same_shape(x));
    Matrix g = Matrix::uninit(x.rows(), x.cols());
    kernels::active().relu_bwd(n.grad.data(), x.data(), g.data(), x.size());
    t->accumulate(a, std::move(g));
  });
}

Var Tape::tanh(Var a) {
  const Matrix& x = a.value();
  Matrix out = Matrix::uninit(x.rows(), x.cols());
  kernels::active().tanh_fwd(x.data(), out.data(), x.size());
  Tape* t = this;
  Var v = emit(std::move(out), node(a).requires_grad, "tanh", nullptr);
  // Backward reads the op's own output (y): d/dx tanh = 1 - y².
  node(v).backward = [t, a, v](Node& n) {
    const Matrix& y = v.value();
    TRKX_CHECK(n.grad.same_shape(y));
    Matrix g = Matrix::uninit(y.rows(), y.cols());
    kernels::active().tanh_bwd(n.grad.data(), y.data(), g.data(), y.size());
    t->accumulate(a, std::move(g));
  };
  return v;
}

Var Tape::sigmoid(Var a) {
  const Matrix& x = a.value();
  Matrix out = Matrix::uninit(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float xi = x.data()[i];
    out.data()[i] = xi >= 0.0f ? 1.0f / (1.0f + std::exp(-xi))
                               : std::exp(xi) / (1.0f + std::exp(xi));
  }
  Tape* t = this;
  Var v = emit(std::move(out), node(a).requires_grad, "sigmoid", nullptr);
  node(v).backward = [t, a, v](Node& n) {
    const Matrix& y = v.value();
    TRKX_CHECK(n.grad.same_shape(y));
    Matrix g = Matrix::uninit(y.rows(), y.cols());
    for (std::size_t i = 0; i < y.size(); ++i) {
      const float gi = n.grad.data()[i];
      const float yi = y.data()[i];
      g.data()[i] = gi * yi * (1.0f - yi);
    }
    t->accumulate(a, std::move(g));
  };
  return v;
}

Var Tape::relu_layer_norm(Var z, Var gamma, Var beta, float eps) {
  const Matrix& zv = z.value();
  const std::size_t rows = zv.rows(), cols = zv.cols();
  TRKX_CHECK(gamma.value().rows() == 1 && gamma.value().cols() == cols);
  TRKX_CHECK(beta.value().rows() == 1 && beta.value().cols() == cols);
  // Per row, the mean and then 1/σ: all the backward needs besides z.
  auto stats = std::make_shared<std::vector<float>>(2 * rows);
  Matrix out = Matrix::uninit(rows, cols);
  kernels::active().relu_layer_norm_fwd(
      zv.data(), gamma.value().data(), beta.value().data(), out.data(),
      stats->data(), stats->data() + rows, rows, cols, eps);
  const bool rg = node(z).requires_grad || node(gamma).requires_grad ||
                  node(beta).requires_grad;
  Tape* t = this;
  return emit(std::move(out), rg, "relu_layer_norm",
              [t, z, gamma, beta, stats](Node& n) {
    const Matrix& zv = z.value();
    const std::size_t rows = zv.rows(), cols = zv.cols();
    TRKX_CHECK(n.grad.same_shape(zv));
    Matrix dgamma = Matrix::uninit(1, cols);
    Matrix dbeta = Matrix::uninit(1, cols);
    Matrix dz = Matrix::uninit(rows, cols);
    kernels::active().relu_layer_norm_bwd(
        n.grad.data(), zv.data(), gamma.value().data(), stats->data(),
        stats->data() + rows, dz.data(), dgamma.data(), dbeta.data(), rows,
        cols);
    if (t->node(gamma).requires_grad) t->accumulate(gamma, std::move(dgamma));
    if (t->node(beta).requires_grad) t->accumulate(beta, std::move(dbeta));
    if (t->node(z).requires_grad) t->accumulate(z, std::move(dz));
  });
}

Var Tape::concat_cols(const std::vector<Var>& blocks) {
  TRKX_CHECK(!blocks.empty());
  std::vector<const Matrix*> mats;
  mats.reserve(blocks.size());
  bool rg = false;
  for (Var b : blocks) {
    mats.push_back(&b.value());
    rg = rg || node(b).requires_grad;
  }
  Matrix out = trkx::concat_cols(mats);
  Tape* t = this;
  auto blocks_copy = blocks;
  return emit(std::move(out), rg, "concat_cols", [t, blocks_copy](Node& n) {
    std::size_t off = 0;
    for (Var b : blocks_copy) {
      const std::size_t w = b.value().cols();
      if (t->node(b).requires_grad)
        t->accumulate(b, trkx::slice_cols(n.grad, off, w));
      off += w;
    }
  });
}

Var Tape::slice_cols(Var a, std::size_t start, std::size_t len) {
  Matrix out = trkx::slice_cols(a.value(), start, len);
  Tape* t = this;
  return emit(std::move(out), node(a).requires_grad, "slice_cols",
              [t, a, start, len](Node& n) {
    Matrix g(a.value().rows(), a.value().cols(), 0.0f);
    for (std::size_t i = 0; i < n.grad.rows(); ++i)
      for (std::size_t j = 0; j < len; ++j) g(i, start + j) = n.grad(i, j);
    t->accumulate(a, std::move(g));
  });
}

Var Tape::scale_rows(Var rows, Var scalars) {
  const Matrix& r = rows.value();
  const Matrix& s = scalars.value();
  TRKX_CHECK_MSG(s.rows() == r.rows() && s.cols() == 1,
                 "scale_rows expects m x 1 scalars, got " << s.shape_str());
  Matrix out = Matrix::uninit(r.rows(), r.cols());
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const float w = s(i, 0);
    for (std::size_t j = 0; j < r.cols(); ++j) out(i, j) = r(i, j) * w;
  }
  const bool rg = node(rows).requires_grad || node(scalars).requires_grad;
  Tape* t = this;
  return emit(std::move(out), rg, "scale_rows", [t, rows, scalars](Node& n) {
    const Matrix& r = rows.value();
    const Matrix& s = scalars.value();
    if (t->node(rows).requires_grad) {
      Matrix gr = Matrix::uninit(r.rows(), r.cols());
      for (std::size_t i = 0; i < r.rows(); ++i) {
        const float w = s(i, 0);
        for (std::size_t j = 0; j < r.cols(); ++j)
          gr(i, j) = n.grad(i, j) * w;
      }
      t->accumulate(rows, std::move(gr));
    }
    if (t->node(scalars).requires_grad) {
      Matrix gs = Matrix::uninit(r.rows(), 1);
      for (std::size_t i = 0; i < r.rows(); ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < r.cols(); ++j)
          acc += n.grad(i, j) * r(i, j);
        gs(i, 0) = acc;
      }
      t->accumulate(scalars, std::move(gs));
    }
  });
}

Var Tape::spmm(const CsrMatrix& a, Var x) {
  TRKX_CHECK(a.cols() == x.value().rows());
  Matrix out = trkx::spmm(a, x.value());
  Tape* t = this;
  // Backward: dL/dX = Aᵀ · dL/dY. Transposing per backward call is fine —
  // the GCN models cache their normalised adjacency per step anyway.
  return emit(std::move(out), node(x).requires_grad, "spmm", [t, x, &a](Node& n) {
    t->accumulate(x, trkx::spmm(a.transpose(), n.grad));
  });
}

Var Tape::row_gather(Var x, std::vector<std::uint32_t> index) {
  Matrix out = trkx::row_gather(x.value(), index);
  Tape* t = this;
  // NOLINT(trkx-hot-alloc): backward-closure index buffer outlives the frame
  auto idx = std::make_shared<std::vector<std::uint32_t>>(std::move(index));
  return emit(std::move(out), node(x).requires_grad, "row_gather", [t, x, idx](Node& n) {
    Matrix g(x.value().rows(), x.value().cols(), 0.0f);
    row_scatter_add(g, *idx, n.grad);
    t->accumulate(x, std::move(g));
  });
}

Var Tape::segment_sum(Var y, std::vector<std::uint32_t> index,
                      std::size_t num_segments) {
  Matrix out = trkx::segment_sum(y.value(), index, num_segments);
  Tape* t = this;
  auto idx = std::make_shared<std::vector<std::uint32_t>>(std::move(index));
  return emit(std::move(out), node(y).requires_grad, "segment_sum", [t, y, idx](Node& n) {
    // Gradient of scatter-add is gather.
    t->accumulate(y, trkx::row_gather(n.grad, *idx));
  });
}

Var Tape::bce_with_logits(Var logits, const std::vector<float>& labels,
                          const std::vector<float>& weights,
                          float pos_weight) {
  const Matrix& z = logits.value();
  TRKX_CHECK_MSG(z.cols() == 1, "bce expects m x 1 logits, got "
                                    << z.shape_str());
  TRKX_CHECK(labels.size() == z.rows());
  TRKX_CHECK(weights.empty() || weights.size() == z.rows());
  const std::size_t m = z.rows();
  TRKX_CHECK(m > 0);

  double total_weight = 0.0;
  double loss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const float zi = z(i, 0);
    const float y = labels[i];
    const float w = weights.empty() ? 1.0f : weights[i];
    // Stable form: with class weight c = 1 + (pos_weight-1)*y,
    // l = c * [ log(1 + exp(-|z|)) + max(z,0) ] - c*y*z  ... specialised:
    const float cw = w * (1.0f + (pos_weight - 1.0f) * y);
    const float log1p = std::log1p(std::exp(-std::fabs(zi)));
    const float term = std::max(zi, 0.0f) - zi * y + log1p;
    // For pos_weight != 1 the standard form weights only the positive term;
    // we use the common "effective sample weight" formulation (PyTorch's
    // pos_weight behaviour for y in {0,1} reduces to this).
    loss += static_cast<double>(cw) * term;
    total_weight += cw;
  }
  TRKX_CHECK(total_weight > 0.0);
  Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / total_weight);

  Tape* t = this;
  auto lbl = std::make_shared<std::vector<float>>(labels);
  auto wts = std::make_shared<std::vector<float>>(weights);
  return emit(std::move(out), node(logits).requires_grad, "bce_with_logits",
              [t, logits, lbl, wts, pos_weight, total_weight](Node& n) {
    const Matrix& z = logits.value();
    const std::size_t m = z.rows();
    Matrix g = Matrix::uninit(m, 1);
    TRKX_CHECK(total_weight > 0.0);  // captured from the checked forward
    const float gscale =
        n.grad(0, 0) / static_cast<float>(total_weight);
    for (std::size_t i = 0; i < m; ++i) {
      const float zi = z(i, 0);
      const float y = (*lbl)[i];
      const float w = wts->empty() ? 1.0f : (*wts)[i];
      const float cw = w * (1.0f + (pos_weight - 1.0f) * y);
      const float s = zi >= 0.0f ? 1.0f / (1.0f + std::exp(-zi))
                                 : std::exp(zi) / (1.0f + std::exp(zi));
      g(i, 0) = gscale * cw * (s - y);
    }
    t->accumulate(logits, std::move(g));
  });
}

Var Tape::contrastive_pair_loss(Var a, Var b,
                                const std::vector<float>& labels,
                                float margin) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  TRKX_CHECK(av.same_shape(bv));
  TRKX_CHECK(labels.size() == av.rows());
  const std::size_t n = av.rows(), f = av.cols();
  TRKX_CHECK(n > 0);

  auto dist = std::make_shared<std::vector<float>>(n);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < f; ++j) {
      const double diff = av(i, j) - bv(i, j);
      d2 += diff * diff;
    }
    const float d = static_cast<float>(std::sqrt(d2 + 1e-12));
    (*dist)[i] = d;
    if (labels[i] > 0.5f) {
      loss += d2;
    } else {
      const float gap = margin - d;
      if (gap > 0.0f) loss += static_cast<double>(gap) * gap;
    }
  }
  Matrix out(1, 1);
  // NOLINT(trkx-div-guard): n > 0 checked at entry
  out(0, 0) = static_cast<float>(loss / static_cast<double>(n));

  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Tape* t = this;
  auto lbl = std::make_shared<std::vector<float>>(labels);
  return emit(std::move(out), rg, "contrastive_pair_loss",
              [t, a, b, lbl, dist, margin](Node& nd) {
    const Matrix& av = a.value();
    const Matrix& bv = b.value();
    const std::size_t n = av.rows(), f = av.cols();
    TRKX_CHECK(n > 0);  // non-empty batch checked in the forward
    const float gscale = nd.grad(0, 0) / static_cast<float>(n);
    Matrix ga = Matrix::uninit(n, f);
    for (std::size_t i = 0; i < n; ++i) {
      float coeff;  // d(loss_i)/d(d²) scaled into d(loss_i)/d(diff) = coeff*diff
      if ((*lbl)[i] > 0.5f) {
        coeff = 2.0f;
      } else {
        const float d = (*dist)[i];
        const float gap = margin - d;
        // d/d(diff) of gap² = 2·gap·(−d'/d(diff)) = −2·gap·diff/d
        coeff = gap > 0.0f ? -2.0f * gap / std::max(d, 1e-6f) : 0.0f;
      }
      for (std::size_t j = 0; j < f; ++j)
        ga(i, j) = gscale * coeff * (av(i, j) - bv(i, j));
    }
    if (t->node(a).requires_grad) t->accumulate(a, ga);
    if (t->node(b).requires_grad) {
      for (float& x : ga.flat()) x = -x;
      t->accumulate(b, std::move(ga));
    }
  });
}

Var Tape::mean_square(Var a) {
  const Matrix& v = a.value();
  TRKX_CHECK(v.size() > 0);
  double s = 0.0;
  for (float x : v.flat()) s += static_cast<double>(x) * x;
  Matrix out(1, 1);
  out(0, 0) = static_cast<float>(s / static_cast<double>(v.size()));
  Tape* t = this;
  return emit(std::move(out), node(a).requires_grad, "mean_square", [t, a](Node& n) {
    const float c = 2.0f * n.grad(0, 0) / static_cast<float>(a.value().size());
    t->accumulate(a, trkx::scale(a.value(), c));
  });
}

Var Tape::sum(Var a) {
  Matrix out(1, 1);
  out(0, 0) = static_cast<float>(a.value().sum());
  Tape* t = this;
  return emit(std::move(out), node(a).requires_grad, "sum", [t, a](Node& n) {
    Matrix g(a.value().rows(), a.value().cols(), n.grad(0, 0));
    t->accumulate(a, std::move(g));
  });
}

void Tape::backward(Var root) {
  TRKX_CHECK_MSG(!backward_done_, "backward() may run once per tape");
  backward_done_ = true;
  Node& r = node(root);
  TRKX_CHECK_MSG(r.value.rows() == 1 && r.value.cols() == 1,
                 "backward root must be scalar, got " << r.value.shape_str());
  r.grad = Matrix(1, 1, 1.0f);
  hold(1);
  TRKX_CHECK(root.index_ < nodes_.size());
  for (std::size_t i = root.index_ + 1; i-- > 0;) {
    Node& n = nodes_[i];
    if (!n.requires_grad || n.grad.empty() || !n.backward) continue;
    // Track whose closure is running so accumulate() can name the op that
    // produced a non-finite gradient under TRKX_CHECK_NUMERICS.
    current_backward_op_ = n.op;
    n.backward(n);
    // The closure was the gradient's last reader: it only pushes into the
    // node's inputs, which sit earlier on the tape.
    live_floats_ -= n.grad.size();
    n.grad = Matrix{};
  }
  current_backward_op_ = nullptr;
}

}  // namespace trkx
