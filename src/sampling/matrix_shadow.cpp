#include "sampling/matrix_shadow.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/sample.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace trkx {

void BulkSampleStats::merge(const BulkSampleStats& other) {
  draw_levels += other.draw_levels;
  frontier_rows += other.frontier_rows;
  sampled_nnz += other.sampled_nnz;
  sample_seconds += other.sample_seconds;
  extract_seconds += other.extract_seconds;
}

MatrixShadowSampler::MatrixShadowSampler(const Graph& parent,
                                         const ShadowConfig& config)
    : parent_(&parent),
      sym_adj_(parent.symmetric_adjacency()),
      config_(config) {
  TRKX_CHECK(config.depth >= 1);
  TRKX_CHECK(config.fanout >= 1);
}

std::vector<std::vector<std::uint32_t>> MatrixShadowSampler::run_levels(
    const std::vector<std::uint32_t>& roots, Rng& rng,
    BulkSampleStats* stats) const {
  const std::size_t n = parent_->num_vertices();
  const std::size_t num_roots = roots.size();

  // visited[r] accumulates the F row of root r (root always included).
  std::vector<std::vector<std::uint32_t>> visited(num_roots);
  for (std::size_t r = 0; r < num_roots; ++r) {
    TRKX_CHECK(roots[r] < n);
    visited[r].push_back(roots[r]);
  }

  // Q^d: one nonzero per row at each root's column.
  std::vector<std::uint32_t> frontier = roots;  // column of each Q row
  std::vector<std::uint32_t> row_root(num_roots);
  for (std::size_t r = 0; r < num_roots; ++r)
    row_root[r] = static_cast<std::uint32_t>(r);

  // One independent stream per root, derived sequentially from the
  // caller's rng. A root's draws then depend only on its own stream, so
  // the grouped sample_rows can sample roots on any thread in any order
  // and still reproduce the serial result bit for bit.
  std::vector<Rng> root_rngs;
  root_rngs.reserve(num_roots);
  for (std::size_t r = 0; r < num_roots; ++r) root_rngs.push_back(rng.split());

  WallTimer timer;
  for (std::size_t level = 0; level < config_.depth; ++level) {
    if (frontier.empty()) break;
    // Fused dataflow: row extraction (P = Q·A ≡ row selection of A), row
    // normalisation and the neighbour draw all happen in one pass over the
    // adjacency's CSR rows, so P is never materialised.
    timer.reset();
    CsrMatrix sampled;
    {
      TRKX_TRACE_SPAN("shadow.fused_draw", "sample");
      sampled = sample_neighbors_fused(sym_adj_, frontier, config_.fanout,
                                       row_root, root_rngs);
    }
    metrics().counter("sample.draw_levels").add(1);
    metrics().counter("sample.frontier_rows").add(frontier.size());
    metrics().counter("sample.sampled_nnz").add(sampled.nnz());
    if (stats) {
      // The whole fused pass is draw time.
      stats->sample_seconds += timer.seconds();
      ++stats->draw_levels;
      stats->frontier_rows += frontier.size();
      stats->sampled_nnz += sampled.nnz();
    }

    // Record draws in F and expand the next Q (one nonzero per draw).
    std::vector<std::uint32_t> next_cols;
    std::vector<std::uint32_t> next_root;
    next_cols.reserve(sampled.nnz());
    next_root.reserve(sampled.nnz());
    for (std::size_t row = 0; row < sampled.rows(); ++row) {
      const std::uint32_t root = row_root[row];
      for (std::uint64_t k = sampled.row_ptr()[row];
           k < sampled.row_ptr()[row + 1]; ++k) {
        const std::uint32_t c = sampled.col_idx()[k];
        visited[root].push_back(c);
        next_cols.push_back(c);
        next_root.push_back(root);
      }
    }
    frontier = std::move(next_cols);
    row_root = std::move(next_root);
  }

  for (auto& verts : visited) {
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  }

  return visited;
}

ShadowSample MatrixShadowSampler::sample(
    const std::vector<std::uint32_t>& batch, Rng& rng,
    BulkSampleStats* stats) const {
  auto samples = sample_bulk({batch}, rng, stats);
  return std::move(samples.front());
}

std::vector<ShadowSample> MatrixShadowSampler::sample_bulk(
    const std::vector<std::vector<std::uint32_t>>& batches, Rng& rng,
    BulkSampleStats* stats) const {
  fault::inject("sampler.bulk_sample");
  TRKX_CHECK(!batches.empty());
  // Stack every batch's roots (Equation 1).
  std::vector<std::uint32_t> roots;
  for (const auto& b : batches)
    roots.insert(roots.end(), b.begin(), b.end());

  auto visited = run_levels(roots, rng, stats);

  WallTimer timer;
  TRKX_TRACE_SPAN("shadow.extract", "sample");
  metrics().counter("sample.bulk_calls").add(1);
  metrics().counter("sample.bulk_batches").add(batches.size());
  std::vector<ShadowSample> out;
  out.reserve(batches.size());
  const std::span<const std::vector<std::uint32_t>> sets(visited);
  std::size_t off = 0;
  for (const auto& batch : batches) {
    out.push_back(assemble_shadow_sample(*parent_, batch,
                                         sets.subspan(off, batch.size())));
    off += batch.size();
  }
  if (stats) stats->extract_seconds += timer.seconds();
  return out;
}

}  // namespace trkx
