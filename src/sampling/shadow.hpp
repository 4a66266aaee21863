#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace trkx {

/// ShaDow hyperparameters (paper defaults: depth 3, fanout 6).
struct ShadowConfig {
  std::size_t depth = 3;   ///< d: random-walk/frontier expansion depth
  std::size_t fanout = 6;  ///< s: distinct neighbours kept per vertex
};

/// One sampled minibatch: the disjoint union of every batch vertex's
/// induced subgraph, with maps back to the parent graph.
///
/// `sub.graph` has exactly one component per batch vertex (components are
/// laid out contiguously in batch order); `component_of[v]` gives the
/// batch position owning sub-vertex v; `sub.vertex_map` / `sub.edge_map`
/// translate back to parent vertex/edge indices so features and labels can
/// be gathered.
struct ShadowSample {
  InducedSubgraph sub;
  std::vector<std::uint32_t> roots;         ///< sub-vertex of each batch vertex
  std::vector<std::uint32_t> component_of;  ///< per sub-vertex batch position

  std::size_t num_components() const { return roots.size(); }
};

/// Reference ShaDow sampler — a faithful implementation of the paper's
/// Algorithm 2 (per-vertex frontier expansion, one induced subgraph per
/// batch vertex, components appended into one output graph).
///
/// Walks traverse the symmetrised adjacency: a track edge must be
/// followable in both directions or inner hits would never reach outer
/// ones.
class ShadowSampler {
 public:
  ShadowSampler(const Graph& parent, const ShadowConfig& config);

  /// Sample the induced-subgraph union for `batch` (parent vertex ids).
  ShadowSample sample(const std::vector<std::uint32_t>& batch, Rng& rng) const;

  /// The vertex set one batch vertex's walk visits (root included,
  /// deduplicated, sorted). Exposed for tests and for the matrix-sampler
  /// equivalence checks.
  std::vector<std::uint32_t> walk_vertex_set(std::uint32_t root,
                                             Rng& rng) const;

  const ShadowConfig& config() const { return config_; }

 private:
  const Graph* parent_;
  CsrMatrix sym_adj_;
  ShadowConfig config_;
  std::vector<std::size_t> fanouts_;  ///< d copies of s
};

/// The vertex set a frontier walk from `root` visits on the walk graph
/// `adj` (root included, deduplicated, sorted). Level l keeps up to
/// fanouts[l] distinct neighbours of every frontier vertex, uniformly, or
/// all of them when there are no more. ShaDow walks d levels of one
/// fanout; node-wise sampling takes a per-level list.
std::vector<std::uint32_t> frontier_walk(const CsrMatrix& adj,
                                         std::uint32_t root,
                                         std::span<const std::size_t> fanouts,
                                         Rng& rng);

/// Assemble a ShadowSample from per-root vertex sets (each sorted and
/// containing its root). Every sampler that yields one component per root
/// builds its sample here, so their outputs agree byte for byte on equal
/// vertex sets.
ShadowSample assemble_shadow_sample(
    const Graph& parent, const std::vector<std::uint32_t>& batch,
    std::span<const std::vector<std::uint32_t>> vertex_sets);

/// Partition [0, n) into shuffled minibatches of `batch_size` (last batch
/// may be smaller). The unit of epoch iteration for minibatch training.
std::vector<std::vector<std::uint32_t>> make_minibatches(std::size_t n,
                                                         std::size_t batch_size,
                                                         Rng& rng);

}  // namespace trkx
