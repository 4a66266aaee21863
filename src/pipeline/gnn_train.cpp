#include "pipeline/gnn_train.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <thread>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "pipeline/checkpoint.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/prefetch.hpp"
#include "util/thread_pool.hpp"

namespace trkx {

GnnModel::GnnModel(const IgnnConfig& cfg, std::uint64_t seed) : config(cfg) {
  Rng rng(seed);
  gnn = std::make_unique<InteractionGnn>(store, cfg, rng);
}

bool EarlyStopping::update(double metric) {
  if (metric > best_) {
    best_ = metric;
    bad_epochs_ = 0;
    return true;
  }
  ++bad_epochs_;
  return false;
}

double TrainResult::total_phase(const std::string& phase) const {
  double s = 0.0;
  for (const auto& e : epochs) s += e.timers.get(phase);
  return s;
}

const EpochRecord& TrainResult::last() const {
  TRKX_CHECK(!epochs.empty());
  return epochs.back();
}

BinaryMetrics evaluate_edges(const GnnModel& model,
                             const std::vector<Event>& events,
                             float threshold, std::size_t threads) {
  TRKX_TRACE_SPAN("eval", "phase");
  const std::size_t n = events.size();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads == 0) threads = std::min(n, hw);
  const auto score_event = [&](const Event& event, BinaryMetrics& out) {
    if (event.graph.num_edges() == 0) return;
    const std::vector<float> scores = model.gnn->predict(
        event.node_features, event.edge_features, event.graph);
    for (std::size_t e = 0; e < scores.size(); ++e)
      out.add(scores[e] >= threshold, event.edge_labels[e] != 0);
  };
  BinaryMetrics metrics;
  if (threads <= 1 || n <= 1) {
    for (const Event& event : events) score_event(event, metrics);
    return metrics;
  }
  // Score events concurrently, then merge counts in event order (merge is
  // integer sums, so the result matches the serial path exactly).
  std::vector<BinaryMetrics> per_event(n);
  ThreadPool pool(std::min(threads, n));
  pool.parallel_for(
      n, [&](std::size_t i) { score_event(events[i], per_event[i]); });
  for (const BinaryMetrics& m : per_event) metrics.merge(m);
  return metrics;
}

float auto_pos_weight(const std::vector<Event>& events) {
  std::size_t pos = 0, total = 0;
  for (const Event& e : events) {
    for (char l : e.edge_labels) pos += (l != 0);
    total += e.edge_labels.size();
  }
  if (pos == 0 || total == pos) return 1.0f;
  const float w = static_cast<float>(total - pos) / static_cast<float>(pos);
  return std::clamp(w, 1.0f, 20.0f);
}

std::size_t full_graph_memory_estimate(const IgnnConfig& config,
                                       const Event& event) {
  // Forward activations (retained for backprop) × 3: a model of the
  // paper's device, where a PyTorch step also holds gradients and
  // workspace, not of this tape. Tape::backward releases each computed
  // gradient once consumed, so a step here peaks at 1.1–1.25× its
  // activations (Tape::peak_floats(), bench_ignn's tape_peak_MB).
  const std::size_t activation_floats = ignn_activation_estimate(
      config, event.num_hits(), event.num_edges());
  return activation_floats * sizeof(float) * 3;
}

bool fits_memory_budget(const GnnTrainConfig& config, const IgnnConfig& gnn,
                        const Event& event) {
  return config.memory_budget_bytes == 0 ||
         full_graph_memory_estimate(gnn, event) <= config.memory_budget_bytes;
}

namespace {

/// Tensors for one gradient step on a (sub)graph. `graph` points at a
/// ShaDow subgraph in the PreparedUnit's samples (moving the unit keeps
/// the vector's buffer) or, in full-graph mode, at the training event's
/// own graph; null marks an empty rank shard. A ShaDow step owns the
/// feature rows it gathered; a full-graph step borrows the event's
/// matrices through `event`, which the forward pass only reads. Nothing
/// points into the struct itself, since it moves through the prefetch
/// queue.
struct StepData {
  const Graph* graph = nullptr;
  const Event* event = nullptr;  ///< full-graph mode: features borrowed
  Matrix node_features;          ///< ShaDow mode: gathered rows
  Matrix edge_features;
  std::vector<float> labels;

  const Matrix& nodes() const {
    return event != nullptr ? event->node_features : node_features;
  }
  const Matrix& edges() const {
    return event != nullptr ? event->edge_features : edge_features;
  }
};

StepData gather_sample(const Event& event, const ShadowSample& sample) {
  StepData d;
  d.graph = &sample.sub.graph;
  d.node_features = row_gather(event.node_features, sample.sub.vertex_map);
  d.edge_features = row_gather(event.edge_features, sample.sub.edge_map);
  d.labels.reserve(sample.sub.edge_map.size());
  for (std::uint32_t e : sample.sub.edge_map)
    d.labels.push_back(event.edge_labels[e] != 0 ? 1.0f : 0.0f);
  return d;
}

/// Full-graph mode's one step per event: the whole event.
StepData whole_event(const Event& event) {
  StepData d;
  d.graph = &event.graph;
  d.event = &event;
  d.labels.assign(event.edge_labels.begin(), event.edge_labels.end());
  return d;
}

/// zero_grad + forward + loss + backward; returns the loss value. Does NOT
/// step the optimizer (DDP synchronises gradients in between).
double compute_gradients(GnnModel& model, Adam& opt, const StepData& data,
                         float pos_weight) {
  opt.zero_grad();
  const Graph& graph = *data.graph;
  if (graph.num_edges() == 0) return 0.0;
  TapeContext ctx;
  Var loss;
  {
    TRKX_TRACE_SPAN("forward", "phase");
    Var logits = model.gnn->forward(ctx, data.nodes(), data.edges(), graph);
    loss = ctx.tape().bce_with_logits(logits, data.labels, {}, pos_weight);
  }
  {
    TRKX_TRACE_SPAN("backward", "phase");
    ctx.backward(loss);
  }
  return loss.value()(0, 0);
}

void apply_step(Adam& opt, float grad_clip) {
  if (grad_clip > 0.0f) opt.clip_grad_norm(grad_clip);
  opt.step();
}

/// Global minibatches for one event, identical on every rank (shared seed).
std::vector<std::vector<std::uint32_t>> event_minibatches(
    const Event& event, std::size_t batch_size, Rng& rng) {
  return make_minibatches(event.num_hits(), batch_size, rng);
}

}  // namespace

std::vector<std::uint32_t> shard_batch(const std::vector<std::uint32_t>& batch,
                                       int rank, int size) {
  TRKX_CHECK(size > 0 && rank >= 0 && rank < size);
  const std::size_t n = batch.size();
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t p = static_cast<std::size_t>(size);
  TRKX_CHECK(p > 0);
  // Balanced contiguous partition: ceil-sized shards for the first
  // n mod p ranks, floor-sized for the rest. Unlike all-ceil chunking,
  // this never starves the trailing ranks (n = p + 1 used to give rank
  // p−1 nothing while rank 0 got two), and small batches (n < p) spread
  // one element to each of the first n ranks.
  const std::size_t base = n / p;
  const std::size_t rem = n % p;
  const std::size_t begin = r * base + std::min(r, rem);
  const std::size_t end = begin + base + (r < rem ? 1 : 0);
  return {batch.begin() + static_cast<std::ptrdiff_t>(begin),
          batch.begin() + static_cast<std::ptrdiff_t>(end)};
}

namespace {

/// Shared epoch loop for full-graph, single-process ShaDow and DDP ShaDow
/// training. The rank abstraction collapses to rank 0 of 1 in the
/// single-process case; full-graph training is the sampler-less case.
struct ShadowTrainContext {
  GnnModel* model;
  Adam* opt;
  const std::vector<Event>* train;
  const std::vector<Event>* val;
  const GnnTrainConfig* config;
  /// nullopt = full graph: one whole-event step per event that fits.
  std::optional<SamplerKind> sampler_kind;
  float pos_weight;
  Communicator* comm = nullptr;  // null = single process
  TrainResult* result = nullptr; // written by rank 0 only
};

/// One prefetchable unit of work: a single minibatch for the reference
/// sampler, one bulk-k chunk for the matrix sampler, a whole event (no
/// batches) in full-graph mode. Built serially at epoch start (so the
/// shared batch_rng sequence is identical on every rank), then produced
/// in any order by the prefetch pipeline.
struct SampleUnit {
  std::uint32_t ei = 0;         ///< event index into the training set
  std::size_t first_batch = 0;  ///< event-local index of batches.front()
  std::vector<std::vector<std::uint32_t>> batches;  ///< my local shards
};

/// A unit after sampling and gathering — everything forward/backward
/// needs. A step with no graph is an empty rank shard that still
/// participates in the gradient all-reduce.
struct PreparedUnit {
  std::vector<ShadowSample> samples;  ///< empty in full-graph mode
  std::vector<StepData> data;         ///< one entry per optimizer step
};

/// Domain-separation tag for the per-(rank, epoch, event, batch) sampling
/// streams, so they never collide with other uses of config.seed.
constexpr std::uint64_t kSampleStreamTag = 0x53414d504c453344ull;

/// Root's validation counts + epoch wall time, broadcast so every rank
/// tracks model-selection / early-stop / checkpoint state identically
/// (identical integer counts → identical F1 → identical decisions, no
/// flag collectives needed). Counts travel as three 16-bit limbs per
/// value — each limb is a small integer, exactly representable in the
/// float payload of Communicator::broadcast — so they survive the trip
/// bit-exactly for anything below 2^48 edges.
constexpr std::size_t kValPacketFloats = 13;

void pack_count(std::uint64_t v, float* out) {
  out[0] = static_cast<float>(v & 0xffffu);
  out[1] = static_cast<float>((v >> 16) & 0xffffu);
  out[2] = static_cast<float>((v >> 32) & 0xffffu);
}

std::uint64_t unpack_count(const float* in) {
  return static_cast<std::uint64_t>(in[0]) |
         (static_cast<std::uint64_t>(in[1]) << 16) |
         (static_cast<std::uint64_t>(in[2]) << 32);
}

std::array<float, kValPacketFloats> pack_val(const BinaryMetrics& val,
                                             double wall_seconds) {
  std::array<float, kValPacketFloats> packet{};
  pack_count(val.true_positives, packet.data());
  pack_count(val.false_positives, packet.data() + 3);
  pack_count(val.true_negatives, packet.data() + 6);
  pack_count(val.false_negatives, packet.data() + 9);
  packet[12] = static_cast<float>(wall_seconds);
  return packet;
}

void unpack_val(const std::array<float, kValPacketFloats>& packet,
                BinaryMetrics& val, double& wall_seconds) {
  val.true_positives = static_cast<std::size_t>(unpack_count(packet.data()));
  val.false_positives =
      static_cast<std::size_t>(unpack_count(packet.data() + 3));
  val.true_negatives =
      static_cast<std::size_t>(unpack_count(packet.data() + 6));
  val.false_negatives =
      static_cast<std::size_t>(unpack_count(packet.data() + 9));
  wall_seconds = static_cast<double>(packet[12]);
}

void run_shadow_training(ShadowTrainContext ctx) {
  const GnnTrainConfig& config = *ctx.config;
  const int rank = ctx.comm ? ctx.comm->rank() : 0;
  const int world = ctx.comm ? ctx.comm->size() : 1;
  const bool is_root = rank == 0;
  const bool whole_events = !ctx.sampler_kind.has_value();
  WallTimer total_timer;

  // Per-event samplers, built once (adjacency precomputation dominates).
  std::vector<std::unique_ptr<ShadowSampler>> ref_samplers;
  std::vector<std::unique_ptr<MatrixShadowSampler>> mat_samplers;
  for (const Event& e : *ctx.train) {
    if (ctx.sampler_kind == SamplerKind::kReference)
      ref_samplers.push_back(
          std::make_unique<ShadowSampler>(e.graph, config.shadow));
    else if (ctx.sampler_kind == SamplerKind::kMatrixBulk)
      mat_samplers.push_back(
          std::make_unique<MatrixShadowSampler>(e.graph, config.shadow));
  }

  // Batch order must be identical across ranks: derived from the shared
  // config seed. Sampling randomness comes from independent streams keyed
  // by (rank, epoch, event, batch) — see Rng::stream — so the prefetch
  // pipeline can sample units in any order, on any thread, and still
  // reproduce the serial run bit for bit.
  // Deliberately shared-sequential: every rank must shuffle the batch order
  // identically, and the epoch-boundary state is checkpointed (PR 5).
  // NOLINT(trkx-rng-stream): rank-shared shuffle, checkpointed for resume
  Rng batch_rng(config.seed);
  EarlyStopping early(std::max<std::size_t>(config.early_stop_patience, 1));
  std::size_t global_step = 0;
  std::vector<float> best_weights;
  double best_f1 = -1.0;
  std::size_t best_epoch = 0;

  // Checkpoint bookkeeping. Every rank serializes the epoch-boundary state
  // blob (replicas are bitwise identical, so the blobs are too); rank 0
  // writes the periodic files and every survivor of a collective timeout
  // writes the retained blob as an emergency checkpoint.
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::uint64_t fingerprint =
      checkpoint_fingerprint(config, ctx.sampler_kind, world);
  // Stamp the run's config identity into every obs artifact (bench JSON,
  // trace metadata, time-series header).
  if (is_root) set_run_fingerprint(fingerprint);
  std::size_t start_epoch = 0;
  std::vector<TrainCheckpointState::EpochSummary> summaries;
  std::string boundary_blob;
  std::uint64_t boundary_next_epoch = 0;
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(config.checkpoint_dir, ec);
    if (config.resume) {
      const std::string ckpt = latest_checkpoint(config.checkpoint_dir);
      if (!ckpt.empty()) {
        const TrainCheckpointState st =
            read_checkpoint(ckpt, ctx.model->store, *ctx.opt);
        if (st.fingerprint != fingerprint)
          throw CheckpointError(
              ckpt + ": written by a different run configuration "
                     "(fingerprint mismatch); resume cannot be bit-identical");
        batch_rng.restore(st.rng_state, st.rng_have_spare, st.rng_spare);
        global_step = st.global_step;
        early.restore(st.early_best, st.early_bad_epochs);
        best_f1 = st.best_f1;
        best_epoch = static_cast<std::size_t>(st.best_epoch);
        best_weights = st.best_weights;
        start_epoch = static_cast<std::size_t>(st.next_epoch);
        summaries = st.epochs;
        if (is_root) {
          for (const auto& s : summaries) {
            EpochRecord r;
            r.train_loss = s.train_loss;
            r.val.true_positives = static_cast<std::size_t>(s.tp);
            r.val.false_positives = static_cast<std::size_t>(s.fp);
            r.val.true_negatives = static_cast<std::size_t>(s.tn);
            r.val.false_negatives = static_cast<std::size_t>(s.fn);
            r.wall_seconds = s.wall_seconds;
            ctx.result->epochs.push_back(std::move(r));
          }
          if (!summaries.empty())
            ctx.result->selected_epoch = summaries.size() - 1;
          TRKX_INFO << "resumed from " << ckpt << " at epoch " << start_epoch
                    << " (step " << global_step << ")";
          metrics().counter("checkpoint.resumes").add(1);
        }
      }
    }
  }

  // Producer threads for the sampler↔trainer overlap, reused across
  // epochs. Depth 0 keeps everything on this thread (serial reference).
  std::unique_ptr<ThreadPool> producer;
  if (config.prefetch_depth > 0)
    producer = std::make_unique<ThreadPool>(
        std::max<std::size_t>(1, config.prefetch_threads));

  try {
  for (std::size_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    TRKX_TRACE_SPAN("epoch", "train");
    fault::inject("train.epoch", rank);
    EpochRecord record;
    WallTimer epoch_timer;
    double loss_sum = 0.0;
    std::size_t steps = 0;

    std::vector<std::uint32_t> order(ctx.train->size());
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = static_cast<std::uint32_t>(i);
    batch_rng.shuffle(order);

    // Epoch plan: every unit of sampling work, in consumption order.
    std::vector<SampleUnit> units;
    for (std::uint32_t ei : order) {
      const Event& event = (*ctx.train)[ei];
      if (whole_events) {
        // The paper's memory wall: a graph that would not fit on the GPU
        // is skipped entirely. An edgeless graph takes no step.
        if (!fits_memory_budget(config, ctx.model->config, event)) {
          if (is_root && epoch == start_epoch) ++ctx.result->skipped_graphs;
        } else if (event.num_edges() > 0) {
          units.push_back(SampleUnit{ei, 0, {}});
        }
        continue;
      }
      if (event.num_hits() == 0) continue;
      const auto global_batches =
          event_minibatches(event, config.batch_size, batch_rng);
      std::vector<std::vector<std::uint32_t>> local;
      local.reserve(global_batches.size());
      for (const auto& b : global_batches)
        local.push_back(world > 1 ? shard_batch(b, rank, world) : b);

      std::size_t bi = 0;
      while (bi < local.size()) {
        const std::size_t k =
            ctx.sampler_kind == SamplerKind::kReference
                ? 1
                : std::min(config.bulk_k, local.size() - bi);
        SampleUnit unit;
        unit.ei = ei;
        unit.first_batch = bi;
        unit.batches.assign(
            local.begin() + static_cast<std::ptrdiff_t>(bi),
            local.begin() + static_cast<std::ptrdiff_t>(bi + k));
        units.push_back(std::move(unit));
        bi += k;
      }
    }

    // Producer: sample + gather one unit. Runs on the prefetch thread
    // when depth > 0, inline inside queue.get() when depth == 0.
    const auto produce = [&, epoch](std::size_t u) {
      TRKX_TRACE_SPAN("prefetch.produce", "prefetch");
      const SampleUnit& unit = units[u];
      const Event& event = (*ctx.train)[unit.ei];
      PreparedUnit out;
      if (whole_events) {
        PhaseSpan phase(record.timers, "gather");
        out.data.push_back(whole_event(event));
        return out;
      }
      Rng rng = Rng::stream(config.seed ^ kSampleStreamTag,
                            static_cast<std::uint64_t>(rank), epoch,
                            unit.ei, unit.first_batch);
      {
        PhaseSpan phase(record.timers, "sample");
        if (ctx.sampler_kind == SamplerKind::kReference) {
          if (!unit.batches.front().empty())
            out.samples.push_back(
                ref_samplers[unit.ei]->sample(unit.batches.front(), rng));
          else
            out.samples.emplace_back();
        } else {
          // Bulk-sample the non-empty shards of the chunk in one stacked
          // pass; empty shards keep an empty sample slot.
          std::vector<std::vector<std::uint32_t>> chunk;
          std::vector<std::size_t> chunk_pos;
          for (std::size_t j = 0; j < unit.batches.size(); ++j) {
            if (!unit.batches[j].empty()) {
              chunk.push_back(unit.batches[j]);
              chunk_pos.push_back(j);
            }
          }
          std::vector<ShadowSample> sampled;
          if (!chunk.empty())
            sampled = mat_samplers[unit.ei]->sample_bulk(chunk, rng);
          out.samples.resize(unit.batches.size());
          for (std::size_t j = 0; j < chunk.size(); ++j)
            out.samples[chunk_pos[j]] = std::move(sampled[j]);
        }
      }
      {
        PhaseSpan phase(record.timers, "gather");
        out.data.resize(out.samples.size());
        for (std::size_t j = 0; j < out.samples.size(); ++j)
          if (!out.samples[j].roots.empty())
            out.data[j] = gather_sample(event, out.samples[j]);
      }
      return out;
    };

    {
      PrefetchQueue<PreparedUnit> queue(producer.get(),
                                        config.prefetch_depth, units.size(),
                                        produce);
      for (std::size_t u = 0; u < units.size(); ++u) {
        PreparedUnit prepared;
        {
          TRKX_TRACE_SPAN("prefetch.get", "prefetch");
          prepared = queue.get(u);
        }
        metrics().gauge("prefetch.depth")
            .set(static_cast<double>(queue.ready_ahead()));
        for (const StepData& step : prepared.data) {
          double local_loss = 0.0;
          {
            PhaseSpan phase(record.timers, "train");
            if (step.graph != nullptr) {
              local_loss = compute_gradients(*ctx.model, *ctx.opt, step,
                                             ctx.pos_weight);
            } else {
              ctx.opt->zero_grad();  // empty shard still participates
            }
          }
          if (ctx.comm) {
            PhaseSpan phase(record.timers, "allreduce");
            synchronize_gradients(*ctx.comm, ctx.model->store, config.sync);
          }
          {
            PhaseSpan phase(record.timers, "train");
            apply_step(*ctx.opt, config.grad_clip);
          }
          ++global_step;
          loss_sum += local_loss;
          ++steps;
        }
      }

      const auto& ps = queue.stats();
      record.timers.add("prefetch_stall", ps.stall_seconds);
      metrics().histogram("prefetch.stall_s").observe(ps.stall_seconds);
      metrics().gauge("prefetch.occupancy").set(ps.mean_occupancy());
      metrics().counter("prefetch.stalls").add(ps.stalls);
      metrics().counter("prefetch.units").add(ps.gets);
      metrics().counter("prefetch.inline_units").add(ps.inline_runs);
    }

    record.train_loss =
        steps == 0 ? 0.0 : loss_sum / static_cast<double>(steps);
    if (ctx.comm) {
      const double total = ctx.comm->all_reduce_scalar(record.train_loss);
      record.train_loss = total / world;  // NOLINT(trkx-div-guard): world >= 1
    }
    if (is_root && config.evaluate_every_epoch)
      record.val = evaluate_edges(*ctx.model, *ctx.val, config.eval_threshold);
    record.wall_seconds = epoch_timer.seconds();
    if (ctx.comm) {
      if (config.evaluate_every_epoch) {
        // Root's validation counts + wall time, broadcast so every rank
        // holds identical numbers and makes the model-selection /
        // early-stop / checkpoint decisions locally — replacing the old
        // is_best/stop flag collectives. Doubles as the "wait for root
        // evaluation" barrier.
        auto packet = pack_val(record.val, record.wall_seconds);
        ctx.comm->broadcast(std::span<float>(packet.data(), packet.size()), 0);
        unpack_val(packet, record.val, record.wall_seconds);
      } else {
        ctx.comm->barrier();  // ranks wait for root
      }
    }
    // After the broadcast every rank holds root's validation counts, so
    // each decides identically without further collectives.
    const bool have_val = config.evaluate_every_epoch;
    if (config.keep_best_weights && have_val && record.val.f1() > best_f1) {
      // Replicas are identical, so every rank snapshots its own weights.
      best_f1 = record.val.f1();
      best_weights = ctx.model->store.flatten_values();
      best_epoch = epoch;
    }
    bool stop = false;
    if (config.early_stop_patience > 0 && have_val) {
      early.update(record.val.f1());
      stop = early.should_stop();
    }
    if (checkpointing) {
      TrainCheckpointState::EpochSummary summary;
      summary.train_loss = record.train_loss;
      summary.tp = record.val.true_positives;
      summary.fp = record.val.false_positives;
      summary.tn = record.val.true_negatives;
      summary.fn = record.val.false_negatives;
      summary.wall_seconds = record.wall_seconds;
      summaries.push_back(summary);
    }
    if (is_root) {
      TRKX_DEBUG << "epoch " << epoch << " loss " << record.train_loss
                 << " valP " << record.val.precision() << " valR "
                 << record.val.recall();
      metrics().counter("train.epochs").add(1);
      metrics().gauge("train.loss").set(record.train_loss);
      metrics().gauge("val.precision").set(record.val.precision());
      metrics().gauge("val.recall").set(record.val.recall());
      metrics().histogram("epoch.wall_s").observe(record.wall_seconds);
      ctx.result->epochs.push_back(std::move(record));
      ctx.result->selected_epoch = epoch;
    }
    if (checkpointing) {
      // batch_rng is only consumed while building the epoch plan, so its
      // state here is exactly the epoch+1 boundary state.
      TrainCheckpointState st;
      st.fingerprint = fingerprint;
      st.next_epoch = epoch + 1;
      st.global_step = global_step;
      st.rng_state = batch_rng.state();
      st.rng_have_spare = batch_rng.have_spare();
      st.rng_spare = batch_rng.spare_value();
      st.early_best = early.best();
      st.early_bad_epochs = early.epochs_since_best();
      st.best_f1 = best_f1;
      st.best_epoch = best_epoch;
      st.best_weights = best_weights;
      st.epochs = summaries;
      boundary_blob = serialize_checkpoint(st, ctx.model->store, *ctx.opt);
      boundary_next_epoch = epoch + 1;
      if (is_root && (epoch + 1) % std::max<std::size_t>(
                                       config.checkpoint_every, 1) ==
                         0) {
        try {
          write_checkpoint_bytes(
              checkpoint_path(config.checkpoint_dir, boundary_next_epoch),
              boundary_blob);
        } catch (const Error& e) {
          // A failed periodic write degrades durability, not correctness:
          // log, count, keep training.
          metrics().counter("checkpoint.write_failures").add(1);
          TRKX_WARN << "checkpoint write failed (training continues): "
                    << e.what();
        }
      }
    }
    if (stop) break;
  }
  } catch (const CommTimeoutError& e) {
    // A peer died or a collective timed out. Every survivor lands here;
    // each writes the last epoch-boundary blob it retained (the blobs are
    // identical across ranks, and the write is atomic-rename, so
    // concurrent survivors are safe) and unwinds so the process can exit
    // resumable.
    if (checkpointing && !boundary_blob.empty()) {
      try {
        write_checkpoint_bytes(
            checkpoint_path(config.checkpoint_dir, boundary_next_epoch),
            boundary_blob);
        metrics().counter("checkpoint.emergency_writes").add(1);
        TRKX_WARN << "rank " << rank
                  << ": collective timeout — wrote emergency checkpoint for "
                     "epoch "
                  << boundary_next_epoch << ": " << e.what();
      } catch (const Error& werr) {
        metrics().counter("checkpoint.write_failures").add(1);
        TRKX_WARN << "rank " << rank
                  << ": emergency checkpoint write failed: " << werr.what();
      }
    }
    throw;
  }
  if (config.keep_best_weights && !best_weights.empty()) {
    ctx.model->store.unflatten_values(best_weights);
    if (is_root) ctx.result->selected_epoch = best_epoch;
  }
  if (is_root) {
    ctx.result->total_seconds = total_timer.seconds();
    if (ctx.comm) ctx.result->comm = ctx.comm->stats();
  }
}

TrainResult train_single_process(GnnModel& model,
                                 const std::vector<Event>& train,
                                 const std::vector<Event>& val,
                                 const GnnTrainConfig& config,
                                 std::optional<SamplerKind> sampler) {
  TRKX_CHECK(!train.empty());
  TrainResult result;
  Adam opt(model.store, AdamOptions{.lr = config.lr});
  ShadowTrainContext ctx;
  ctx.model = &model;
  ctx.opt = &opt;
  ctx.train = &train;
  ctx.val = &val;
  ctx.config = &config;
  ctx.sampler_kind = sampler;
  ctx.pos_weight =
      config.pos_weight > 0.0f ? config.pos_weight : auto_pos_weight(train);
  ctx.result = &result;
  run_shadow_training(ctx);
  return result;
}

}  // namespace

TrainResult train_full_graph(GnnModel& model, const std::vector<Event>& train,
                             const std::vector<Event>& val,
                             const GnnTrainConfig& config) {
  return train_single_process(model, train, val, config, std::nullopt);
}

TrainResult train_shadow(GnnModel& model, const std::vector<Event>& train,
                         const std::vector<Event>& val,
                         const GnnTrainConfig& config, SamplerKind sampler) {
  return train_single_process(model, train, val, config, sampler);
}

TrainResult train_shadow_ddp(GnnModel& model, const std::vector<Event>& train,
                             const std::vector<Event>& val,
                             const GnnTrainConfig& config,
                             DistRuntime& runtime, SamplerKind sampler) {
  TRKX_CHECK(!train.empty());
  TrainResult result;
  const float pos_weight =
      config.pos_weight > 0.0f ? config.pos_weight : auto_pos_weight(train);

  // One replica per rank, identically initialised from the shared seed.
  std::vector<std::unique_ptr<GnnModel>> replicas;
  std::vector<std::unique_ptr<Adam>> opts;
  for (int r = 0; r < runtime.size(); ++r) {
    replicas.push_back(std::make_unique<GnnModel>(model.config, config.seed));
    opts.push_back(
        std::make_unique<Adam>(replicas.back()->store,
                               AdamOptions{.lr = config.lr}));
  }

  runtime.run([&](Communicator& comm) {
    ShadowTrainContext ctx;
    ctx.model = replicas[static_cast<std::size_t>(comm.rank())].get();
    ctx.opt = opts[static_cast<std::size_t>(comm.rank())].get();
    ctx.train = &train;
    ctx.val = &val;
    ctx.config = &config;
    ctx.sampler_kind = sampler;
    ctx.pos_weight = pos_weight;
    ctx.comm = &comm;
    ctx.result = &result;
    run_shadow_training(ctx);
  });

  model.store.copy_values_from(replicas[0]->store);
  return result;
}

}  // namespace trkx
