#pragma once

#include "detector/event.hpp"
#include "graph/graph.hpp"
#include "tensor/matrix.hpp"

namespace trkx {

/// Stage 2 of the Exa.TrkX pipeline: build a fixed-radius nearest-
/// neighbour graph over points in the learned embedding space.
struct FrnnConfig {
  float radius = 0.5f;        ///< connection radius in embedding space
  /// For each point i, of its neighbours j > i within the radius, only the
  /// max_neighbors smallest by (d², j) are kept.
  std::size_t max_neighbors = 64;
};

/// All ordered pairs (i, j), i != j, with ‖points[i] − points[j]‖ ≤ radius.
/// Directed edges are emitted from the lower-layer hit to the higher-layer
/// hit when `layers` is provided (ties broken by index), halving the edge
/// count and matching the detector convention; with no layers every pair
/// appears once as (min, max).
///
/// Each unordered pair is tested once, and the `max_neighbors` cap applies
/// at its lower index i (see FrnnConfig). Up to 8 dimensions.
///
/// The search sorts the points by packed cell key (cells about `radius`
/// wide) into a CSR of occupied cells over an SoA copy of the coordinates.
/// Each cell then scans a half stencil of rows of three consecutive cells
/// along dimension 0, found by a two-pointer walk over the sorted keys, and
/// tests distances over each row's points as one contiguous block. The
/// result equals build_frnn_graph_bruteforce edge for edge, including which
/// neighbours the cap keeps on distance ties, for any input: NaN
/// coordinates never connect, and far-out points share edge cells.
Graph build_frnn_graph(const Matrix& points, const FrnnConfig& config,
                       const std::vector<std::uint32_t>& layers = {});

/// Brute-force O(n²) reference: the oracle the tests hold
/// build_frnn_graph to.
Graph build_frnn_graph_bruteforce(const Matrix& points,
                                  const FrnnConfig& config,
                                  const std::vector<std::uint32_t>& layers = {});

/// Replace `event.graph` with an FRNN graph over `embedded`, relabel its
/// edges against truth and rebuild the features with `scales`: edge
/// features for the new edges, and node features too, which change
/// wherever `scales` differ from the generator's.
void rebuild_event_graph(Event& event, const Matrix& embedded,
                         const FrnnConfig& config,
                         std::size_t edge_feature_dim,
                         const FeatureScales& scales);

}  // namespace trkx
