// Kernel-layer roofline: per-kernel bandwidth (GB/s) and arithmetic
// throughput (GFLOP/s) for every dispatch table the host supports
// (scalar, AVX2, AVX-512), at the fixed 8192×64 trajectory shape plus the
// shapes of one IGNN edge-MLP layer: its GEMMs (forward, dX, dW) over the
// concatenated E×6h input, the same layer split by W's row blocks (the
// E-row and V-row products, one 32-wide block's GEMMs alone, the
// gather-add and its segment_sum gradient), and its E×32 activations
// (relu, tanh and the fused relu → layer norm, forward and backward; one
// tanh counts as one op).
//
//   ./bench_kernels [--reps 9] [--inner 4] [--json-out BENCH_kernels.json]
//
// Each series is one (kernel, isa) pair; metrics carry the median wall
// time plus derived gb_per_sec / gflops_per_sec, the AVX2 and AVX-512
// series add speedup_vs_scalar and the AVX-512 ones speedup_vs_avx2, so
// the regression gate and the DESIGN.md roofline tables read straight off
// the artifact. The AVX-512 table differs from AVX2 only in gemm, gemm_nt
// and gemm_tn, so its series cover the GEMM cases alone (every case whose
// name starts with "gemm"): any other avx512 row would time avx2's own
// function again. A host without AVX2+FMA emits the scalar series only,
// one without AVX-512F no avx512 series.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.hpp"

#include "sparse/spgemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

using Clock = std::chrono::steady_clock;

/// Median wall seconds of `reps` timed runs, each executing fn() `inner`
/// times (inner repetition amortises clock granularity on fast kernels).
template <typename Fn>
double median_seconds(int reps, int inner, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  fn();  // warm-up: page in buffers, resolve dispatch
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const auto t1 = Clock::now();
    t.push_back(std::chrono::duration<double>(t1 - t0).count() / inner);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Median seconds of every series run so far, by table then series name.
using Timings = std::map<std::string, std::map<std::string, double>>;

/// The roofline shape of the committed trajectory: 8192×64 hidden states,
/// a 64×64 GEMM. It stays fixed so check_regression.py compares these
/// series like for like.
constexpr std::size_t kRows = 8192;
constexpr std::size_t kCols = 64;
constexpr std::size_t kInner = 64;
constexpr std::size_t kEwN = kRows * kCols;

/// The IGNN shapes the training workloads run (hidden 32): the edge MLP's
/// first layer maps the 6h = 192-wide message input of kEdges sampled
/// edges to 32 features. Its backward runs dX through gemm_nt and the
/// weight gradient dW as a gemm_tn reduction over the edges. Split by W's
/// row blocks, the same layer is [Y Y⁰]·W₁₂ over the E edge rows plus
/// [X X⁰]·W₃₄ and [X X⁰]·W₅₆ over kVerts = E/2.5 vertex rows (the ShaDow
/// subgraphs' measured E/V), gathered into the edge rows after the GEMM;
/// each h-wide block is its own GEMM, accumulating into one output.
constexpr std::size_t kEdges = 6451;
constexpr std::size_t kMsgIn = 192;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kVerts = 2580;

void run_isa(const kernels::KernelTable& t, int reps, int inner,
             Timings& timings, BenchJsonWriter& json) {
  Rng rng(17);
  const Matrix a = Matrix::random_normal(kRows, kInner, rng);
  const Matrix b = Matrix::random_normal(kInner, kCols, rng);
  const Matrix x = Matrix::random_normal(kRows, kCols, rng);
  const Matrix y = Matrix::random_normal(kRows, kCols, rng);
  Matrix out(kRows, kCols);
  const Matrix bt = Matrix::random_normal(kCols, kInner, rng);
  Matrix out_tn(kInner, kCols);
  const Matrix msg = Matrix::random_normal(kEdges, kMsgIn, rng);
  const Matrix w_msg = Matrix::random_normal(kMsgIn, kHidden, rng);
  const Matrix d_out = Matrix::random_normal(kEdges, kHidden, rng);
  Matrix edge_out(kEdges, kHidden), edge_dx(kEdges, kMsgIn);
  Matrix edge_dw(kMsgIn, kHidden);
  std::vector<float> gamma(kCols, 1.0f), beta(kCols, 0.1f);
  std::vector<float> ln_dz(kEwN), ln_stats(2 * kRows), colsum(kCols);
  std::vector<float> dgamma(kCols), dbeta(kCols);

  // ~degree-8 random sparse adjacency for spmm.
  std::vector<Triplet> trips;
  for (std::size_t r = 0; r < kRows; ++r)
    for (int d = 0; d < 8; ++d)
      trips.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(rng.uniform_index(kRows)),
                       1.0f});
  const CsrMatrix adj = CsrMatrix::from_triplets(kRows, kRows, trips);
  const double nnz = static_cast<double>(adj.nnz());

  std::vector<std::uint32_t> idx(kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    idx[i] = static_cast<std::uint32_t>(rng.uniform_index(kRows));

  Matrix w = Matrix::random_normal(kRows, kCols, rng);
  Matrix m0(kRows, kCols, 0.0f), v0(kRows, kCols, 0.0f);
  const kernels::AdamStep step{1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f, 1.111f,
                               1.001f};

  // Edge-MLP activations: E×32 pre-activations, the tanh of them (the
  // saved output tanh_bwd reads) and d_out above as the upstream gradient.
  // Their own Rng leaves the data of the series above unchanged.
  Rng act_rng(23);
  const Matrix act_x = Matrix::random_normal(kEdges, kHidden, act_rng);
  Matrix act_tanh(kEdges, kHidden), act_out(kEdges, kHidden);
  kernels::scalar_table().tanh_fwd(act_x.data(), act_tanh.data(),
                                   act_x.size());

  // The split edge-MLP layer: h-wide blocks Y, Y⁰ (E rows), X, X⁰ (V
  // rows), W's 32×32 row blocks, the V×32 node-side product P and the
  // edge endpoints. Own Rng, so the series above keep their data.
  Rng split_rng(29);
  const Matrix y_blk = Matrix::random_normal(kEdges, kHidden, split_rng);
  const Matrix y0_blk = Matrix::random_normal(kEdges, kHidden, split_rng);
  const Matrix x_blk = Matrix::random_normal(kVerts, kHidden, split_rng);
  const Matrix x0_blk = Matrix::random_normal(kVerts, kHidden, split_rng);
  const Matrix w_blk = Matrix::random_normal(kHidden, kHidden, split_rng);
  Matrix node_p(kVerts, kHidden), node_q(kVerts, kHidden);
  Matrix block_dx(kEdges, kHidden), block_dw(kHidden, kHidden);
  std::vector<std::uint32_t> endpoint(kEdges);
  for (std::uint32_t& v : endpoint)
    v = static_cast<std::uint32_t>(split_rng.uniform_index(kVerts));

  struct Case {
    const char* name;
    double bytes;
    double flops;
    std::function<void()> fn;
    std::size_t rows = kRows;  // output shape, reported as params
    std::size_t cols = kCols;
  };
  const double fR = static_cast<double>(kRows), fC = static_cast<double>(kCols),
               fK = static_cast<double>(kInner), fN = static_cast<double>(kEwN);
  /// Bytes and flops of one m×k·k×n GEMM (C read and written once).
  const auto gemm_bytes = [](double m, double k, double n) {
    return 4.0 * (m * k + k * n + 2.0 * m * n);
  };
  const auto gemm_flops = [](double m, double k, double n) {
    return 2.0 * m * k * n;
  };
  const double fE = static_cast<double>(kEdges),
               fM = static_cast<double>(kMsgIn),
               fH = static_cast<double>(kHidden);
  std::vector<Case> cases;
  cases.push_back({"gemm", gemm_bytes(fR, fK, fC), gemm_flops(fR, fK, fC), [&] {
                     std::memset(out.data(), 0, kEwN * sizeof(float));
                     t.gemm(a.data(), b.data(), out.data(), kRows, kInner,
                            kCols, /*accumulate=*/false);
                   }});
  cases.push_back({"gemm_nt", gemm_bytes(fR, fK, fC), gemm_flops(fR, fK, fC),
                   [&] {
                     t.gemm_nt(a.data(), bt.data(), out.data(), kRows, kInner,
                               kCols, /*accumulate=*/false);
                   }});
  cases.push_back({"gemm_tn", gemm_bytes(fK, fR, fC), gemm_flops(fK, fR, fC),
                   [&] {
                     out_tn.fill(0.0f);
                     t.gemm_tn(a.data(), x.data(), out_tn.data(), kInner, kRows,
                               kCols, /*accumulate=*/false);
                   },
                   kInner, kCols});
  cases.push_back({"gemm_edge_mlp", gemm_bytes(fE, fM, fH),
                   gemm_flops(fE, fM, fH),
                   [&] {
                     edge_out.fill(0.0f);
                     t.gemm(msg.data(), w_msg.data(), edge_out.data(), kEdges,
                            kMsgIn, kHidden, /*accumulate=*/false);
                   },
                   kEdges, kHidden});
  cases.push_back({"gemm_nt_edge_dx", gemm_bytes(fE, fH, fM),
                   gemm_flops(fE, fH, fM),
                   [&] {
                     t.gemm_nt(d_out.data(), w_msg.data(), edge_dx.data(),
                               kEdges, kHidden, kMsgIn, /*accumulate=*/false);
                   },
                   kEdges, kMsgIn});
  cases.push_back({"gemm_tn_edge_dw", gemm_bytes(fM, fE, fH),
                   gemm_flops(fM, fE, fH),
                   [&] {
                     edge_dw.fill(0.0f);
                     t.gemm_tn(msg.data(), d_out.data(), edge_dw.data(), kMsgIn,
                               kEdges, kHidden, /*accumulate=*/false);
                   },
                   kMsgIn, kHidden});
  // One split edge-MLP layer: E×64·64×32 as two accumulating E×32·32×32
  // GEMMs, two V×64·64×32 as four V-row GEMMs, the E×32 gather-add of a
  // node-side product and its backward, the segment_sum of dOut to V rows.
  const double fV = static_cast<double>(kVerts);
  cases.push_back({"gemm_split_edge", 2.0 * gemm_bytes(fE, fH, fH),
                   2.0 * gemm_flops(fE, fH, fH),
                   [&] {
                     t.gemm(y_blk.data(), w_blk.data(), edge_out.data(),
                            kEdges, kHidden, kHidden, /*accumulate=*/true);
                     t.gemm(y0_blk.data(), w_blk.data(), edge_out.data(),
                            kEdges, kHidden, kHidden, /*accumulate=*/true);
                   },
                   kEdges, kHidden});
  cases.push_back({"gemm_split_node", 4.0 * gemm_bytes(fV, fH, fH),
                   4.0 * gemm_flops(fV, fH, fH),
                   [&] {
                     for (Matrix* p : {&node_p, &node_q}) {
                       t.gemm(x_blk.data(), w_blk.data(), p->data(), kVerts,
                              kHidden, kHidden, /*accumulate=*/false);
                       t.gemm(x0_blk.data(), w_blk.data(), p->data(), kVerts,
                              kHidden, kHidden, /*accumulate=*/true);
                     }
                   },
                   kVerts, kHidden});
  // One 32-wide block of that layer, one GEMM at a time: an E-row block
  // times its 32×32 row block of W (overwriting, then accumulating), the
  // block's dX = dP·W_blockᵀ, and dW_block = blockᵀ·dP over the E rows and
  // over the V rows.
  cases.push_back({"gemm_block_e", gemm_bytes(fE, fH, fH),
                   gemm_flops(fE, fH, fH),
                   [&] {
                     t.gemm(y_blk.data(), w_blk.data(), edge_out.data(),
                            kEdges, kHidden, kHidden, /*accumulate=*/false);
                   },
                   kEdges, kHidden});
  cases.push_back({"gemm_block_e_acc", gemm_bytes(fE, fH, fH),
                   gemm_flops(fE, fH, fH),
                   [&] {
                     t.gemm(y0_blk.data(), w_blk.data(), edge_out.data(),
                            kEdges, kHidden, kHidden, /*accumulate=*/true);
                   },
                   kEdges, kHidden});
  cases.push_back({"gemm_nt_block_dx", gemm_bytes(fE, fH, fH),
                   gemm_flops(fE, fH, fH),
                   [&] {
                     t.gemm_nt(d_out.data(), w_blk.data(), block_dx.data(),
                               kEdges, kHidden, kHidden, /*accumulate=*/false);
                   },
                   kEdges, kHidden});
  cases.push_back({"gemm_tn_block_dw_e", gemm_bytes(fH, fE, fH),
                   gemm_flops(fH, fE, fH),
                   [&] {
                     t.gemm_tn(y_blk.data(), d_out.data(), block_dw.data(),
                               kHidden, kEdges, kHidden, /*accumulate=*/false);
                   },
                   kHidden, kHidden});
  cases.push_back({"gemm_tn_block_dw_v", gemm_bytes(fH, fV, fH),
                   gemm_flops(fH, fV, fH),
                   [&] {
                     t.gemm_tn(x_blk.data(), x0_blk.data(), block_dw.data(),
                               kHidden, kVerts, kHidden, /*accumulate=*/false);
                   },
                   kHidden, kHidden});
  cases.push_back({"gather_add_edge", 4.0 * fE * fH * 3.0 + 4.0 * fE, fE * fH,
                   [&] {
                     t.row_gather(node_p.data(), endpoint.data(),
                                  edge_out.data(), kEdges, kHidden,
                                  /*accumulate=*/true);
                   },
                   kEdges, kHidden});
  cases.push_back({"segment_sum_edge",
                   4.0 * (fE * fH + 2.0 * fV * fH) + 4.0 * fE, fE * fH,
                   [&] {
                     node_q.fill(0.0f);
                     t.row_scatter_add(node_q.data(), endpoint.data(),
                                       d_out.data(), kEdges, kHidden);
                   },
                   kVerts, kHidden});
  cases.push_back({"spmm", 4.0 * (nnz * 2.0 + fR * fC * 2.0 + nnz * fC),
                   2.0 * nnz * fC, [&] {
                     std::memset(out.data(), 0, kEwN * sizeof(float));
                     t.spmm(adj.row_ptr().data(), adj.col_idx().data(),
                            adj.values().data(), x.data(), out.data(), kRows,
                            kCols);
                   }});
  cases.push_back({"row_gather", 4.0 * (fN * 2.0) + 4.0 * fR, 0.0, [&] {
                     t.row_gather(x.data(), idx.data(), out.data(), kRows,
                                  kCols, /*accumulate=*/false);
                   }});
  cases.push_back({"ew_add", 4.0 * fN * 3.0, fN, [&] {
                     t.ew_add(x.data(), y.data(), out.data(), kEwN);
                   }});
  cases.push_back({"colwise_sum", 4.0 * (fN + 2.0 * fC), fN, [&] {
                     std::memset(colsum.data(), 0, kCols * sizeof(float));
                     t.colwise_sum(x.data(), colsum.data(), kRows, kCols);
                   }});
  // The fused relu → layer norm: forward reads z and writes y and two
  // floats per row; backward reads dy and z twice (the dz rows, then the
  // row-order dgamma/dbeta strips) and writes dz.
  const auto ln_fwd_bytes = [](double r, double c) {
    return 4.0 * (2.0 * r * c + 2.0 * r + 2.0 * c);
  };
  const auto ln_bwd_bytes = [](double r, double c) {
    return 4.0 * (5.0 * r * c + 2.0 * r + 3.0 * c);
  };
  cases.push_back({"relu_layer_norm_fwd", ln_fwd_bytes(fR, fC), 8.0 * fN, [&] {
                     t.relu_layer_norm_fwd(x.data(), gamma.data(), beta.data(),
                                           out.data(), ln_stats.data(),
                                           ln_stats.data() + kRows, kRows,
                                           kCols, 1e-5f);
                   }});
  cases.push_back({"relu_layer_norm_bwd", ln_bwd_bytes(fR, fC), 20.0 * fN, [&] {
                     t.relu_layer_norm_bwd(y.data(), x.data(), gamma.data(),
                                           ln_stats.data(),
                                           ln_stats.data() + kRows,
                                           ln_dz.data(), dgamma.data(),
                                           dbeta.data(), kRows, kCols);
                   }});
  cases.push_back({"adam_update", 4.0 * fN * 7.0, 11.0 * fN, [&] {
                     t.adam_update(w.data(), x.data(), m0.data(), v0.data(),
                                   kEwN, step);
                   }});
  const double fA = fE * fH;
  const std::size_t n_act = act_x.size();
  cases.push_back({"relu_fwd_edge", 4.0 * fA * 2.0, fA,
                   [&] { t.relu_fwd(act_x.data(), act_out.data(), n_act); },
                   kEdges, kHidden});
  cases.push_back({"relu_bwd_edge", 4.0 * fA * 3.0, fA,
                   [&] {
                     t.relu_bwd(d_out.data(), act_x.data(), act_out.data(),
                                n_act);
                   },
                   kEdges, kHidden});
  cases.push_back({"tanh_fwd_edge", 4.0 * fA * 2.0, fA,
                   [&] { t.tanh_fwd(act_x.data(), act_out.data(), n_act); },
                   kEdges, kHidden});
  cases.push_back({"tanh_bwd_edge", 4.0 * fA * 3.0, 3.0 * fA,
                   [&] {
                     t.tanh_bwd(d_out.data(), act_tanh.data(), act_out.data(),
                                n_act);
                   },
                   kEdges, kHidden});
  cases.push_back({"relu_layer_norm_fwd_edge", ln_fwd_bytes(fE, fH), 8.0 * fA,
                   [&] {
                     t.relu_layer_norm_fwd(act_x.data(), gamma.data(),
                                           beta.data(), act_out.data(),
                                           ln_stats.data(),
                                           ln_stats.data() + kEdges, kEdges,
                                           kHidden, 1e-5f);
                   },
                   kEdges, kHidden});
  cases.push_back({"relu_layer_norm_bwd_edge", ln_bwd_bytes(fE, fH),
                   20.0 * fA,
                   [&] {
                     t.relu_layer_norm_bwd(d_out.data(), act_x.data(),
                                           gamma.data(), ln_stats.data(),
                                           ln_stats.data() + kEdges,
                                           ln_dz.data(), dgamma.data(),
                                           dbeta.data(), kEdges, kHidden);
                   },
                   kEdges, kHidden});

  const std::string isa = t.name;
  const bool gemms_only = &t == &kernels::avx512_table();
  for (const Case& k : cases) {
    if (gemms_only && !std::string_view(k.name).starts_with("gemm")) continue;
    const double sec = median_seconds(reps, inner, k.fn);
    timings[isa][k.name] = sec;
    auto& s = json.series(std::string(k.name) + "/" + isa);
    s.param("kernel", k.name)
        .param("isa", isa)
        .param("rows", static_cast<long long>(k.rows))
        .param("cols", static_cast<long long>(k.cols))
        .metric("seconds_median", sec)
        .metric("gb_per_sec", k.bytes / sec / 1e9)
        .metric("gflops_per_sec", k.flops / sec / 1e9);
    std::printf("  %-18s %-6s  %8.1f us  %7.2f GB/s  %7.2f GFLOP/s", k.name,
                isa.c_str(), sec * 1e6, k.bytes / sec / 1e9,
                k.flops / sec / 1e9);
    // Speedups against the tables run before this one (scalar first).
    for (const char* base : {"scalar", "avx2"}) {
      if (isa == base) break;
      const double speedup = timings[base][k.name] / sec;
      s.metric(std::string("speedup_vs_") + base, speedup);
      std::printf("  %5.2fx vs %s", speedup, base);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  using namespace trkx;
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const int reps = args.get_int("reps", 9);
  const int inner = args.get_int("inner", 4);

  std::printf("=== Kernel roofline: scalar, AVX2 and AVX-512 dispatch "
              "tables ===\n");
  BenchJsonWriter json("kernels");
  Timings timings;
  run_isa(kernels::scalar_table(), reps, inner, timings, json);
  if (kernels::host_has_avx2()) {
    run_isa(kernels::avx2_table(), reps, inner, timings, json);
  } else {
    std::printf("host lacks AVX2+FMA: scalar series only\n");
  }
  if (kernels::host_has_avx512()) {
    run_isa(kernels::avx512_table(), reps, inner, timings, json);
  } else if (kernels::host_has_avx2()) {
    std::printf("host lacks AVX-512F: no avx512 series\n");
  }

  const std::string json_path = args.get("json-out", "");
  if (json.write(json_path))
    std::printf("bench JSON written to %s\n", json_path.c_str());
  return 0;
}
