// Training workloads (train-ex3, train-ctd-ddp): matrix bulk ShaDow
// minibatch training of the Interaction GNN, single-process or DDP with
// thread ranks.
//
// A run sets up several times. Each set-up generates the events, builds a
// fresh model and trains epoch 0 (the warm-up); the first one then goes on
// for the timed epochs. Every set-up starts from the same inputs and model
// seed, so their warm-up epochs must agree exactly, and the run checks it.
// The number of timed epochs is fixed by --seconds and a nominal epoch time
// from workloads.json, never by a clock, so the final F1 repeats exactly.

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "detector/presets.hpp"
#include "dist/gradient_sync.hpp"
#include "obs/metrics.hpp"
#include "pipeline/gnn_train.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using trkx::Event;

/// Registry gauges reported per layer: (metric, gauge name).
constexpr std::pair<const char*, const char*> kGauges[] = {
    {"tensor.pool.hit_rate", "pool.hit_rate"},
    {"tensor.memplan.plan_reuses", "memplan.plan_reuses"},
    {"tensor.memplan.replans", "memplan.replans"},
    {"tensor.memplan.arena_mb", "memplan.arena_bytes"}};

/// The last value the training loop published for a registry gauge, or
/// nothing when the program no longer has that gauge.
std::optional<double> gauge(const std::string& name) {
  for (const auto& [n, v] : trkx::metrics().dump().gauges)
    if (n == name) return v;
  return std::nullopt;
}

/// Global minibatch steps one epoch over `events` takes (every rank runs
/// one step per global batch, on its shard).
std::size_t steps_per_epoch(const std::vector<Event>& events,
                            std::size_t batch) {
  std::size_t steps = 0;
  for (const Event& e : events) steps += (e.num_hits() + batch - 1) / batch;
  return steps;
}

/// The process at one epoch boundary: its CPU clock, and its peak RSS
/// since the previous boundary.
struct EpochMark {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Runs `train` on a helper thread while this thread watches the epoch
/// boundaries: it wakes each millisecond and reads the `train.epochs`
/// counter the trainer bumps when an epoch ends. At each boundary it reads
/// the process CPU clock and peak RSS and restarts the peak, so both come
/// out per epoch, and a burst of machine noise or a spike in the thread
/// caches spoils only the epochs it overlaps.
template <class Fn>
std::vector<EpochMark> watch_epochs(Fn&& train) {
  trkx::Counter& epochs = trkx::metrics().counter("train.epochs");
  const std::uint64_t first = epochs.value();
  std::atomic<bool> done{false};
  std::exception_ptr error;
  std::thread trainer([&] {
    try {
      train();
    } catch (...) {
      error = std::current_exception();
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<EpochMark> marks;
  std::uint64_t seen = first;
  for (;;) {
    const bool last = done.load(std::memory_order_acquire);
    const std::uint64_t now = epochs.value();
    if (now != seen) {
      const EpochMark mark{process_cpu_seconds(), peak_rss_mb()};
      reset_peak_rss();
      for (; seen < now; ++seen) marks.push_back(mark);
    }
    if (last) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trainer.join();
  if (error) std::rethrow_exception(error);
  return marks;
}

bool same_counts(const trkx::BinaryMetrics& a, const trkx::BinaryMetrics& b) {
  return a.true_positives == b.true_positives &&
         a.false_positives == b.false_positives &&
         a.true_negatives == b.true_negatives &&
         a.false_negatives == b.false_negatives;
}

struct ReplayResult {
  double wall_s = 0.0;
  double sample_s = 0.0, forward_s = 0.0, backward_s = 0.0;
  double sync_s = 0.0, optimizer_s = 0.0;
  double unattributed_s = 0.0;
  std::uint64_t subgraph_edges = 0;
};

/// Replays one epoch of training steps through the public layer calls —
/// MatrixShadowSampler::sample_bulk, InteractionGnn::forward,
/// Tape::backward (via TapeContext), synchronize_gradients and Adam::step —
/// on the batch plan the trainer used for epoch 1, the first timed epoch.
/// With `spans`, rank 0 records a span around each call; without, the same
/// work runs unrecorded, and the difference in wall time is the tracing
/// overhead.
ReplayResult replay_epoch(const trkx::GnnTrainConfig& cfg,
                          const trkx::IgnnConfig& gnn,
                          const std::vector<Event>& train, int ranks,
                          SpanLog* spans) {
  // The trainer draws its batch order from Rng(seed): epoch 0's draws
  // first, then epoch 1's.
  trkx::Rng batch_rng(cfg.seed);
  using Batches = std::vector<std::vector<std::uint32_t>>;
  std::vector<std::pair<std::uint32_t, Batches>> plan;
  for (int epoch = 0; epoch < 2; ++epoch) {
    plan.clear();
    std::vector<std::uint32_t> order(train.size());
    std::iota(order.begin(), order.end(), 0u);
    batch_rng.shuffle(order);
    for (std::uint32_t ei : order)
      plan.emplace_back(ei, trkx::make_minibatches(train[ei].num_hits(),
                                                   cfg.batch_size, batch_rng));
  }
  std::vector<std::unique_ptr<trkx::MatrixShadowSampler>> samplers;
  for (const Event& e : train)
    samplers.push_back(
        std::make_unique<trkx::MatrixShadowSampler>(e.graph, cfg.shadow));
  const float pos_weight = trkx::auto_pos_weight(train);
  std::vector<std::unique_ptr<trkx::GnnModel>> models;
  std::vector<std::unique_ptr<trkx::Adam>> opts;
  for (int r = 0; r < ranks; ++r) {
    models.push_back(std::make_unique<trkx::GnnModel>(gnn, cfg.seed));
    opts.push_back(std::make_unique<trkx::Adam>(
        models.back()->store, trkx::AdamOptions{.lr = cfg.lr}));
  }

  constexpr std::uint64_t kReplayTag = 0x5245504c41593031ull;
  ReplayResult out;
  const auto rank_body = [&](trkx::Communicator* comm) {
    const int rank = comm ? comm->rank() : 0;
    SpanLog* log = rank == 0 ? spans : nullptr;
    trkx::GnnModel& model = *models[static_cast<std::size_t>(rank)];
    trkx::Adam& opt = *opts[static_cast<std::size_t>(rank)];
    const auto epoch_start = Clock::now();
    const std::uint64_t parent =
        log ? log->add("pipeline.gnn_train.replay_epoch", epoch_start,
                       epoch_start)
            : 0;
    // Times one layer call; with a log, also records its span.
    const auto timed = [&](const char* name, double& total, auto&& fn) {
      const auto t0 = Clock::now();
      fn();
      const auto t1 = Clock::now();
      if (log) {
        log->add(name, t0, t1, parent);
        total += seconds_between(t0, t1);
      }
    };
    for (const auto& [ei, batches] : plan) {
      const Event& event = train[ei];
      for (std::size_t first = 0; first < batches.size();
           first += cfg.bulk_k) {
        const std::size_t k = std::min(cfg.bulk_k, batches.size() - first);
        std::vector<std::vector<std::uint32_t>> chunk;
        for (std::size_t j = first; j < first + k; ++j) {
          std::vector<std::uint32_t> shard =
              comm ? trkx::shard_batch(batches[j], rank, ranks) : batches[j];
          chunk.push_back(std::move(shard));
        }
        std::vector<std::vector<std::uint32_t>> nonempty;
        for (const auto& c : chunk)
          if (!c.empty()) nonempty.push_back(c);
        trkx::Rng rng = trkx::Rng::stream(cfg.seed ^ kReplayTag,
                                          static_cast<std::uint64_t>(rank), 1,
                                          ei, first);
        std::vector<trkx::ShadowSample> samples;
        timed("sampling.sample_bulk", out.sample_s, [&] {
          if (!nonempty.empty())
            samples = samplers[ei]->sample_bulk(nonempty, rng);
        });
        // Empty shards still join the gradient all-reduce.
        samples.resize(chunk.size());
        for (const trkx::ShadowSample& sample : samples) {
          opt.zero_grad();
          if (!sample.roots.empty()) {
            const trkx::Matrix nodes =
                trkx::row_gather(event.node_features, sample.sub.vertex_map);
            const trkx::Matrix edges =
                trkx::row_gather(event.edge_features, sample.sub.edge_map);
            std::vector<float> labels;
            labels.reserve(sample.sub.edge_map.size());
            for (std::uint32_t e : sample.sub.edge_map)
              labels.push_back(event.edge_labels[e] != 0 ? 1.0f : 0.0f);
            if (rank == 0) out.subgraph_edges += sample.sub.graph.num_edges();
            if (sample.sub.graph.num_edges() > 0) {
              trkx::TapeContext tape;
              trkx::Var loss;
              timed("gnn.forward", out.forward_s, [&] {
                const trkx::Var logits =
                    model.gnn->forward(tape, nodes, edges, sample.sub.graph);
                loss = tape.tape().bce_with_logits(logits, labels, {},
                                                   pos_weight);
              });
              timed("autograd.backward", out.backward_s,
                    [&] { tape.backward(loss); });
            }
          }
          if (comm)
            timed("dist.sync", out.sync_s, [&] {
              trkx::synchronize_gradients(*comm, model.store, cfg.sync);
            });
          timed("nn.optimizer", out.optimizer_s, [&] {
            opt.clip_grad_norm(cfg.grad_clip);
            opt.step();
          });
        }
      }
    }
    if (rank == 0) {
      const auto epoch_end = Clock::now();
      out.wall_s = seconds_between(epoch_start, epoch_end);
      if (log) {
        log->finish(parent, epoch_end);
        out.unattributed_s = log->unattributed_s(parent);
      }
    }
  };
  if (ranks == 1) {
    rank_body(nullptr);
  } else {
    trkx::DistRuntime runtime(ranks);
    runtime.run([&](trkx::Communicator& comm) { rank_body(&comm); });
  }
  return out;
}

}  // namespace

void run_train(const RunContext& ctx, const Params& p, Report& report) {
  const std::string data = p.str("data");
  TRKX_CHECK_MSG(data == "ex3" || data == "ctd", "--data must be ex3 or ctd");
  const double scale = p.num("scale");
  const trkx::DatasetSpec spec =
      data == "ex3" ? trkx::ex3_spec(scale) : trkx::ctd_spec(scale);
  const int ranks = static_cast<int>(p.integer("ranks"));
  TRKX_CHECK_MSG(ranks >= 1, "--ranks must be >= 1");

  trkx::IgnnConfig gnn;
  gnn.node_input_dim = spec.detector.node_feature_dim;
  gnn.edge_input_dim = spec.detector.edge_feature_dim;
  gnn.hidden_dim = p.count("hidden");
  gnn.num_layers = p.count("layers");
  gnn.mlp_hidden = spec.mlp_hidden_layers - 1;
  // Every mechanism switch (prefetch, sampler path, sync strategy, pool,
  // memory planner, SIMD table) stays at the library default.
  trkx::GnnTrainConfig cfg;
  cfg.batch_size = p.count("batch");
  cfg.shadow.depth = p.count("depth");
  cfg.shadow.fanout = p.count("fanout");
  cfg.bulk_k = p.count("bulk-k");
  const std::size_t setups = p.count("setups");
  TRKX_CHECK_MSG(setups >= 2, "--setups must be >= 2");
  const std::size_t timed_epochs = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(ctx.seconds / p.num("epoch-nominal-s"))));

  // Input selection, before any timing: fixed-size events from the seed.
  // One validation event keeps the per-epoch evaluation pool serial.
  const double hits = p.num("hits"), edges = p.num("edges");
  const double tol = p.num("size-tolerance");
  const EventKeys train_keys = choose_event_keys(
      spec.detector, ctx.seed, 0, p.count("train-events"), hits, edges, tol);
  const EventKeys val_keys =
      choose_event_keys(spec.detector, ctx.seed, 1, 1, hits, edges, tol);
  const EventKeys eval_keys = choose_event_keys(
      spec.detector, ctx.seed, 2, p.count("eval-events"), hits, edges, tol);

  const int omp = omp_get_max_threads();
  const int producers =
      cfg.prefetch_depth > 0 ? static_cast<int>(cfg.prefetch_threads) : 0;
  note_threads(report,
               std::to_string(ranks) + " rank(s) x (" + std::to_string(omp) +
                   " OMP + " + std::to_string(producers) +
                   " prefetch producer); the main thread only samples the "
                   "epoch counter",
               ranks * (omp + producers));

  const auto train_once = [&](std::size_t epochs, trkx::GnnModel& model,
                              const std::vector<Event>& tr,
                              const std::vector<Event>& va) {
    trkx::GnnTrainConfig c = cfg;
    c.epochs = epochs;
    if (ranks == 1)
      return trkx::train_shadow(model, tr, va, c,
                                trkx::SamplerKind::kMatrixBulk);
    trkx::DistRuntime runtime(ranks);
    return trkx::train_shadow_ddp(model, tr, va, c, runtime,
                                  trkx::SamplerKind::kMatrixBulk);
  };

  // The first set-up, in a fresh process, goes on into the timed epochs:
  // later set-ups start with what the earlier ones left in the allocator
  // and the thread caches. The others repeat the set-up alone, for its
  // median and the exact-repeat check.
  std::vector<double> setup_s, generate_s, warmup_s, setup_rss_mb;
  std::vector<trkx::BinaryMetrics> warmup_val;
  std::vector<Event> train;
  std::unique_ptr<trkx::GnnModel> model;
  trkx::TrainResult result;
  std::vector<double> epoch_cpu_s, epoch_rss_mb;
  std::vector<std::optional<double>> timed_gauges;
  Clock::time_point timed_end;
  std::size_t epochs_run = 0;
  bool boundaries_seen = true;
  for (std::size_t i = 0; i < setups; ++i) {
    const bool timed = i == 0;
    reset_peak_rss();
    const auto t0 = Clock::now();
    std::vector<Event> tr = generate(spec.detector, train_keys);
    std::vector<Event> va = generate(spec.detector, val_keys);
    generate_s.push_back(seconds_since(t0));
    auto m = std::make_unique<trkx::GnnModel>(gnn, cfg.seed);
    trkx::TrainResult r;
    const std::vector<EpochMark> marks = watch_epochs([&] {
      r = train_once(timed ? 1 + timed_epochs : 1, *m, tr, va);
    });
    const auto t1 = Clock::now();
    boundaries_seen = boundaries_seen && marks.size() == r.epochs.size();
    if (!marks.empty()) setup_rss_mb.push_back(marks.front().peak_rss_mb);
    double timed_wall = 0.0;
    for (std::size_t e = 1; e < r.epochs.size(); ++e)
      timed_wall += r.epochs[e].wall_seconds;
    setup_s.push_back(seconds_between(t0, t1) - timed_wall);
    warmup_s.push_back(r.epochs.front().wall_seconds);
    warmup_val.push_back(r.epochs.front().val);
    epochs_run += r.epochs.size();
    if (timed) {
      for (std::size_t e = 1; e < marks.size(); ++e) {
        epoch_cpu_s.push_back(marks[e].cpu_s - marks[e - 1].cpu_s);
        epoch_rss_mb.push_back(marks[e].peak_rss_mb);
      }
      timed_end = t1;
      result = std::move(r);
      model = std::move(m);
      train = std::move(tr);
      for (const auto& [metric, name] : kGauges)
        timed_gauges.push_back(gauge(name));
    }
  }

  // Output checks.
  report.check("epoch count", result.epochs.size() == 1 + timed_epochs,
               std::to_string(result.epochs.size()) + " epochs");
  report.check("every epoch boundary seen on the CPU clock", boundaries_seen,
               std::to_string(epoch_cpu_s.size()) + " timed epochs");
  bool warmups_agree = true;
  for (const trkx::BinaryMetrics& m : warmup_val)
    warmups_agree = warmups_agree && same_counts(m, warmup_val.front());
  report.check("warm-up epoch repeats exactly across set-ups", warmups_agree,
               std::to_string(setups) + " set-ups");
  const std::size_t steps = steps_per_epoch(train, cfg.batch_size);
  std::size_t failed_steps = 0;
  for (const trkx::EpochRecord& e : result.epochs)
    if (!std::isfinite(e.train_loss) || !std::isfinite(e.val.f1()))
      failed_steps += steps;
  report.check("loss and F1 finite", failed_steps == 0,
               std::to_string(failed_steps) + " steps in non-finite epochs");
  // Quality: F1 of the final model on held-out events, scored serially
  // after the timed epochs.
  const std::vector<Event> held_out = generate(spec.detector, eval_keys);
  double f1 =
      trkx::evaluate_edges(*model, held_out, cfg.eval_threshold, 1).f1();
  if (ctx.sabotage == "quality") f1 = 0.0;
  const double floor = p.num("f1-floor");
  report.check("held-out F1 above floor", std::isfinite(f1) && f1 > floor,
               "F1 " + std::to_string(f1) + " vs floor " +
                   std::to_string(floor));
  report.attempted = epochs_run * steps;
  report.failed = failed_steps;

  std::vector<double> walls, compute, stall, sample, gather, allreduce;
  for (std::size_t e = 1; e < result.epochs.size(); ++e) {
    const trkx::EpochRecord& r = result.epochs[e];
    walls.push_back(r.wall_seconds);
    compute.push_back(r.timers.get("train"));
    stall.push_back(r.timers.get("prefetch_stall"));
    sample.push_back(r.timers.get("sample"));
    gather.push_back(r.timers.get("gather"));
    allreduce.push_back(r.timers.get("allreduce"));
  }
  report.note("timed epochs: " + std::to_string(walls.size()) + " x " +
              std::to_string(train.size()) + " events, " +
              std::to_string(steps) + " global steps per epoch");
  std::string epochs_line = "timed epochs, CPU ms / wall ms / peak RSS MB:";
  for (std::size_t e = 0; e < walls.size() && e < epoch_cpu_s.size(); ++e)
    epochs_line += " " + std::to_string(std::lround(1e3 * epoch_cpu_s[e])) +
                   "/" + std::to_string(std::lround(1e3 * walls[e])) + "/" +
                   std::to_string(std::lround(epoch_rss_mb[e]));
  report.note(epochs_line);

  // End to end. CPU time and peak RSS per timed epoch, the medians over
  // the epochs.
  report.metric("setup_s", median(setup_s), "s");
  report.metric("unit_cpu_ms", 1e3 * median(epoch_cpu_s), "ms");
  report.metric("goodput_per_s",
                static_cast<double>(train.size()) / median(walls), "1/s");
  report.metric("quality", f1, "ratio");
  report.exact("train.val_f1", result.last().val.f1());
  report.exact("train.heldout_f1", f1);

  // Per layer.
  const double per_epoch = 1.0 / static_cast<double>(result.epochs.size());
  report.metric("detector.generate_s", median(generate_s), "s");
  report.metric("pipeline.gnn_train.warmup_epoch_s", median(warmup_s), "s");
  report.metric("pipeline.gnn_train.compute_s", median(compute), "s");
  report.metric("pipeline.gnn_train.prefetch_stall_s", median(stall), "s");
  report.metric("train.epoch_s", median(walls), "s");
  report.metric("train.epoch_s.max",
                *std::max_element(walls.begin(), walls.end()), "s");
  report.metric("sampling.sample_s", median(sample), "s");
  report.metric("sampling.gather_s", median(gather), "s");
  report.metric("dist.allreduce_calls",
                static_cast<double>(result.comm.all_reduce_calls) * per_epoch,
                "count");
  report.metric("dist.allreduce_bytes",
                static_cast<double>(result.comm.all_reduce_bytes) * per_epoch,
                "bytes");
  report.metric("dist.allreduce_s", median(allreduce), "s");
  report.metric("dist.allreduce_modeled_s",
                result.comm.modeled_seconds * per_epoch, "s");
  report.exact("dist.allreduce_calls",
               static_cast<double>(result.comm.all_reduce_calls));
  report.exact("dist.allreduce_bytes",
               static_cast<double>(result.comm.all_reduce_bytes));
  for (std::size_t g = 0; g < std::size(kGauges); ++g) {
    const auto& [metric, name] = kGauges[g];
    const std::optional<double>& v = timed_gauges[g];
    if (!v) {
      report.note(std::string("absent: gauge ") + name + " (" + metric + ")");
      continue;
    }
    const bool mb = std::string(metric).ends_with("_mb");
    report.metric(metric, mb ? *v / 1e6 : *v,
                  mb ? "MB" : (std::string(metric).ends_with("hit_rate")
                                   ? "ratio"
                                   : "count"));
  }

  if (ctx.trace) {
    SpanLog spans(ctx.origin);
    // Epoch spans from the trainer's own per-epoch buckets. Epochs ran back
    // to back and the last ended with the call; the buckets are durations,
    // so children are laid end to end from the epoch start.
    double end = seconds_between(ctx.origin, timed_end);
    for (std::size_t e = result.epochs.size(); e-- > 1;) {
      const trkx::EpochRecord& r = result.epochs[e];
      const double start = end - r.wall_seconds;
      const std::uint64_t id = spans.add_at("train.epoch", start, end, 0, 1);
      double at = start;
      for (const char* phase : {"prefetch_stall", "train", "allreduce"}) {
        const double d = r.timers.get(phase);
        spans.add_at(std::string("pipeline.gnn_train.") + phase, at, at + d,
                     id, 1);
        at += d;
      }
      end = start;
    }
    // Untraced replays on both sides of the traced one, so warming up
    // favours neither.
    const ReplayResult before = replay_epoch(cfg, gnn, train, ranks, nullptr);
    const ReplayResult traced = replay_epoch(cfg, gnn, train, ranks, &spans);
    const ReplayResult after = replay_epoch(cfg, gnn, train, ranks, nullptr);
    const double plain_s = 0.5 * (before.wall_s + after.wall_s);
    report.metric("gnn.forward_ms", 1e3 * traced.forward_s, "ms");
    report.metric("autograd.backward_ms", 1e3 * traced.backward_s, "ms");
    report.metric("nn.optimizer_ms", 1e3 * traced.optimizer_s, "ms");
    report.metric("sampling.sample_bulk_ms", 1e3 * traced.sample_s, "ms");
    report.metric("dist.sync_ms", 1e3 * traced.sync_s, "ms");
    report.metric("sampling.subgraph_edges",
                  static_cast<double>(traced.subgraph_edges), "count");
    report.metric("pipeline.gnn_train.unattributed_ms",
                  1e3 * traced.unattributed_s, "ms");
    report.metric("trace.replay_epoch_s", traced.wall_s, "s");
    report.metric("trace.overhead_pct",
                  100.0 * (traced.wall_s - plain_s) / plain_s, "%");
    report.exact("sampling.subgraph_edges",
                 static_cast<double>(traced.subgraph_edges));
    report.check("replay repeats the sampled subgraphs",
                 before.subgraph_edges == traced.subgraph_edges &&
                     after.subgraph_edges == traced.subgraph_edges,
                 std::to_string(traced.subgraph_edges) + " edges");
    if (!ctx.trace_out.empty()) spans.write_json(ctx.trace_out);
    report.note("spans: " + std::to_string(spans.size()) + " recorded");
  }
  report.metric("peak_rss_mb", median(epoch_rss_mb), "MB");
  std::string setups_line = "set-ups [s]:";
  for (double v : setup_s) setups_line += " " + std::to_string(v);
  report.note(setups_line);
  std::string rss_line = "set-up peak RSS [MB] (to the end of epoch 0):";
  for (double v : setup_rss_mb) rss_line += " " + std::to_string(v);
  report.note(rss_line);
}

}  // namespace perfbench
