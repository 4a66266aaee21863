#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace trkx {

class Tape;

/// Handle to a node on a Tape. Cheap to copy; lifetime is bounded by the
/// owning Tape (one Tape per forward/backward pass in training loops).
class Var {
 public:
  Var() = default;

  const Matrix& value() const;
  /// A leaf's gradient after backward(). Throws before backward(), for a
  /// leaf that received none and for a computed node, whose gradient
  /// backward() released.
  const Matrix& grad() const;
  bool requires_grad() const;
  std::size_t rows() const { return value().rows(); }
  std::size_t cols() const { return value().cols(); }
  bool valid() const { return tape_ != nullptr; }

 private:
  friend class Tape;
  Var(Tape* tape, std::size_t index) : tape_(tape), index_(index) {}
  Tape* tape_ = nullptr;
  std::size_t index_ = 0;
};

/// One term of a linear layer's input (Tape::linear). The column blocks
/// `inputs` are read as their concatenation [inputs[0] inputs[1] ...],
/// which is never built: each block multiplies its own contiguous row
/// block of W. With an `index`, the term's product P is formed on the
/// inputs' own rows and gathered after the GEMM, so output row i adds
/// P[index[i]]. The caller keeps `*index` alive for the tape's lifetime
/// (backward reads it), as Tape::spmm's caller keeps its CSR.
struct LinearTerm {
  std::vector<Var> inputs;
  const std::vector<std::uint32_t>* index = nullptr;
};

/// Reverse-mode automatic differentiation tape.
///
/// Records every op during the forward pass; backward() replays the tape in
/// reverse, accumulating gradients into each node. Nodes whose subtree
/// contains no gradient-requiring leaf skip gradient work entirely.
///
/// Lifetime: every node's value lives as long as the tape. A computed
/// node's gradient is released as soon as its backward closure has pushed
/// it to the node's inputs (they sit earlier on the tape, so nothing reads
/// it again); only leaves keep their gradients after backward(). A step
/// therefore holds its activations plus one frontier of gradients, not a
/// gradient per activation.
///
/// The op set is exactly what the Exa.TrkX pipeline needs: dense linear
/// algebra for the MLPs plus the two graph primitives from Algorithm 1 of
/// the paper: MSG indexing (a gather, inside an indexed LinearTerm for
/// the IGNN and as row_gather for the GCN) and segment_sum for AGG.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Record a leaf holding `value`. If requires_grad, backward() will
  /// accumulate into its grad().
  Var leaf(Matrix value, bool requires_grad = false);

  // ---- dense ops ----
  Var matmul(Var a, Var b);
  /// Σ_t gather_t([inputs_t]·W_t) + broadcast bias, where W_t are the
  /// consecutive row blocks of w (in×out, in = the terms' total width) in
  /// term and block order, and bias is 1×out. Fused: one node, one
  /// backward. The output starts as the bias and every product
  /// accumulates into it; backward reduces an indexed term's gradient to
  /// its inputs' rows (segment_sum) before its dW and dX GEMMs.
  Var linear(const std::vector<LinearTerm>& terms, Var w, Var bias);
  /// x·w + broadcast bias: the one-term linear.
  Var linear(Var x, Var w, Var bias);
  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  Var hadamard(Var a, Var b);
  Var scale(Var a, float s);
  Var relu(Var a);
  Var tanh(Var a);
  Var sigmoid(Var a);
  /// Row-wise LayerNorm with learned affine (gamma, beta are 1×cols) of
  /// relu(z), as one node: it keeps its output and two floats per row
  /// (mean, 1/σ), and its backward recomputes relu(z) and x̂ from z.
  Var relu_layer_norm(Var z, Var gamma, Var beta, float eps = 1e-5f);
  Var concat_cols(const std::vector<Var>& blocks);
  Var slice_cols(Var a, std::size_t start, std::size_t len);
  /// out[i,:] = rows[i,:] · scalars[i,0] — per-row scaling by an m×1
  /// column (the attention-gating primitive: weights each edge message).
  Var scale_rows(Var rows, Var scalars);

  // ---- graph ops ----
  /// Y = A·X for a constant sparse A (the GCN aggregation primitive).
  /// The caller keeps `a` alive for the tape's lifetime; backward
  /// multiplies by Aᵀ.
  Var spmm(const CsrMatrix& a, Var x);
  /// out[i,:] = x[index[i],:]
  Var row_gather(Var x, std::vector<std::uint32_t> index);
  /// out[s,:] = sum_{i: index[i]==s} y[i,:]   (AGG in Algorithm 1)
  Var segment_sum(Var y, std::vector<std::uint32_t> index,
                  std::size_t num_segments);

  // ---- losses (return 1×1 scalars) ----
  /// Binary cross-entropy with logits, numerically stable, mean-reduced.
  /// `labels` in {0,1}; optional per-example weights (empty = all 1);
  /// `pos_weight` scales the positive-class term (class imbalance).
  Var bce_with_logits(Var logits, const std::vector<float>& labels,
                      const std::vector<float>& weights = {},
                      float pos_weight = 1.0f);
  /// Hinge contrastive loss over row pairs (metric-learning stage):
  /// with dᵢ = ‖aᵢ − bᵢ‖, the per-pair loss is dᵢ² for positives and
  /// max(0, margin − dᵢ)² for negatives; mean-reduced. `labels` in {0,1}.
  Var contrastive_pair_loss(Var a, Var b, const std::vector<float>& labels,
                            float margin);

  /// Mean of squared elements (used by gradcheck and the embedding loss).
  Var mean_square(Var a);
  /// Sum of all elements.
  Var sum(Var a);

  /// Run reverse-mode accumulation from `root` (must be 1×1). Seeds the
  /// root gradient with 1. May be called once per tape.
  void backward(Var root);

  /// True if v holds a gradient: after backward(), a leaf whose branch
  /// reaches the loss (a leaf can legitimately receive none). Always false
  /// for a computed node once backward() has run, which released it.
  bool has_grad(Var v) const { return !node(v).grad.empty(); }

  /// Number of recorded nodes (for tests / memory accounting).
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Total floats held in node values — the "activation memory" that the
  /// paper's full-graph mode blows up on; exposed for the memory bench.
  std::size_t activation_floats() const;
  /// The most floats held at once in node values and gradients over the
  /// tape's life so far (closure temporaries excluded): the tape's
  /// high-water, which backward() reaches on top of activation_floats().
  std::size_t peak_floats() const { return peak_floats_; }

 private:
  struct Node {
    Matrix value;
    Matrix grad;            // sized on first accumulation; a computed
                            // node's is released after its closure runs
    bool requires_grad = false;
    const char* op = "leaf";  // static op name, for numerics diagnostics
    std::function<void(Node&)> backward;  // reads node.grad, pushes to parents
  };

  Node& node(Var v) {
    TRKX_CHECK(v.tape_ == this && v.index_ < nodes_.size());
    return nodes_[v.index_];
  }
  const Node& node(Var v) const {
    TRKX_CHECK(v.tape_ == this && v.index_ < nodes_.size());
    return nodes_[v.index_];
  }

  /// `op` must be a string literal (stored, never copied). Under
  /// TRKX_CHECK_NUMERICS (util/numerics.hpp) every computed op's output is
  /// verified finite here, and every gradient contribution in accumulate().
  Var emit(Matrix value, bool requires_grad, const char* op,
           std::function<void(Node&)> backward);
  /// Accumulate g into the node's grad. Taking g by value lets backward
  /// closures hand over their temporaries: the first contribution to a
  /// node is a buffer move, not a copy, so the allocator sees one
  /// allocation per gradient instead of two.
  void accumulate(Var v, Matrix g);
  /// Count `floats` more as held in node values and gradients.
  void hold(std::size_t floats);

  friend class Var;
  std::deque<Node> nodes_;
  bool backward_done_ = false;
  const char* current_backward_op_ = nullptr;  // op whose closure is running
  std::size_t live_floats_ = 0;  // floats now held in values and gradients
  std::size_t peak_floats_ = 0;  // the most live_floats_ has been
};

}  // namespace trkx
