#pragma once

#include "sampling/shadow.hpp"
#include "sparse/csr.hpp"
#include "util/timer.hpp"

namespace trkx {

/// Phase breakdown of one bulk sampling call (for the Figure 3 split and
/// the sampler ablation bench).
struct BulkSampleStats {
  std::size_t draw_levels = 0;     ///< fused draw passes, one per level
  std::size_t frontier_rows = 0;   ///< total Q rows processed across levels
  std::size_t sampled_nnz = 0;     ///< total neighbours drawn
  double sample_seconds = 0.0;
  double extract_seconds = 0.0;
  void merge(const BulkSampleStats& other);
};

/// Matrix-based ShaDow sampler (the paper's Figure 2 / Section III-C).
///
/// Sampling is expressed as sparse matrix operations on the symmetrised
/// adjacency A:
///   1. Q^d is a (#roots × n) selection matrix, one nonzero per row.
///   2. P = Q·A extracts each frontier vertex's neighbourhood as a row;
///      normalize_rows() turns it into a uniform distribution.
///   3. sample_rows() draws s distinct neighbours per row; every draw is
///      recorded in the frontier F (one row per *root*), kept as one
///      sorted vertex list per root (that root's component vertex_map)
///      rather than as a CSR matrix.
///   4. The sampled nonzeros expand into the next Q (one nonzero per row),
///      and the process repeats for d levels.
///   5. Each root's induced subgraph A(S, S) = S·A·Sᵀ of the *directed*
///      adjacency is extracted.
///
/// Steps 2–3 run fused: Q has one nonzero per row, so Q·A is a row
/// selection, and sample_neighbors_fused() normalises and draws from each
/// selected CSR row in one pass without building P. Step 5 reads the
/// graph's CSR out-edge index (assemble_shadow_sample). The literal
/// SpGEMM formulation of both is the test oracle in
/// tests/shadow_oracle.hpp, which must draw the same bytes.
///
/// Bulk mode stacks the per-batch Q matrices (Equation 1) so k minibatches
/// share every sampling pass — the optimisation the paper credits for its
/// sampling speedup.
class MatrixShadowSampler {
 public:
  MatrixShadowSampler(const Graph& parent, const ShadowConfig& config);

  /// Sample one minibatch (Figure 2 with a single Q block).
  ShadowSample sample(const std::vector<std::uint32_t>& batch, Rng& rng,
                      BulkSampleStats* stats = nullptr) const;

  /// Sample k minibatches in one stacked pass (Equation 1). Returns one
  /// ShadowSample per input batch, identical in structure to what
  /// ShadowSampler would produce for the same draws.
  std::vector<ShadowSample> sample_bulk(
      const std::vector<std::vector<std::uint32_t>>& batches, Rng& rng,
      BulkSampleStats* stats = nullptr) const;

  const ShadowConfig& config() const { return config_; }

 private:
  /// Shared machinery: run the level loop for the given stacked roots and
  /// return one visited-vertex set per root.
  std::vector<std::vector<std::uint32_t>> run_levels(
      const std::vector<std::uint32_t>& roots, Rng& rng,
      BulkSampleStats* stats) const;

  const Graph* parent_;
  CsrMatrix sym_adj_;  ///< walk graph
  ShadowConfig config_;
};

}  // namespace trkx
