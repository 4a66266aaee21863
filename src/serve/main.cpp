// trkx-serve: the event-stream inference server driver.
//
//   trkx-serve [--events 32] [--rate 0] [--train 2] [--mean-particles 25]
//              [--model model.bin] [--save-model model.bin]
//              [--checkpoint-dir DIR] [--write-checkpoint]
//              [--reload-every N]
//              [--workers N] [--queue-depth N] [--deadline-ms N]
//              [--stage-timeout-ms N] [--retry-budget N]
//
// Warm-starts a tiny learned-graph pipeline (or loads one with --model),
// starts the ServeServer, and drives `--events` synthetic requests at an
// optional open-loop `--rate` (req/s; 0 = submit as fast as admission
// allows). SIGHUP — or every `--reload-every` submissions — triggers an
// atomic replica reload from --checkpoint-dir; a corrupt or missing
// checkpoint costs the reload, never the service. TRKX_FAULTS is armed
// from the environment, so the CI serving leg can inject faults at
// serve.admit / serve.stage / serve.checkpoint_reload and assert on the
// counter lines this driver prints:
//
//   serve.accepted=31
//   serve.rejected.queue_full=1
//   ...
//   serve.exit=ok
//
// The driver exits 0 as long as the *server* survived — rejected, shed,
// and failed requests are the degradation working as designed. Only an
// untyped (non-trkx::Error) escape exits non-zero.

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "detector/generator.hpp"
#include "pipeline/checkpoint.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

volatile std::sig_atomic_t g_reload_requested = 0;

void on_sighup(int) { g_reload_requested = 1; }

}  // namespace

using namespace trkx;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const int n_events = args.get_int("events", 32);
  const double rate = args.get_double("rate", 0.0);
  const std::size_t n_train =
      static_cast<std::size_t>(args.get_int("train", 2));
  const double mean_particles = args.get_double("mean-particles", 25.0);
  const std::string model_path = args.get("model", "");
  const std::string save_model = args.get("save-model", "");
  const std::string ckpt_dir = args.get("checkpoint-dir", "");
  const int reload_every = args.get_int("reload-every", 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  fault::Registry::global().arm_from_env();
  std::signal(SIGHUP, on_sighup);

  serve::ServeConfig serve_cfg;
  serve_cfg.workers = args.get_int("workers", serve_cfg.workers);
  serve_cfg.queue_depth = static_cast<std::size_t>(
      args.get_int("queue-depth", static_cast<int>(serve_cfg.queue_depth)));
  serve_cfg.default_deadline_ms = args.get_int(
      "deadline-ms", static_cast<int>(serve_cfg.default_deadline_ms));
  serve_cfg.stage_timeout_ms = args.get_int(
      "stage-timeout-ms", static_cast<int>(serve_cfg.stage_timeout_ms));
  serve_cfg.retry_budget =
      args.get_int("retry-budget", serve_cfg.retry_budget);

  // Dataset: tiny synthetic events, both for warm training and as the
  // request stream payloads.
  DetectorConfig detector;
  detector.mean_particles = mean_particles;
  detector.noise_fraction = 0.05;
  serve_cfg.b_field_tesla = detector.b_field;
  // Events drawn from keyed streams (seed, role, index) so the fixture is
  // reproducible under any generation order.
  auto make_events = [&](std::uint64_t role, std::size_t count) {
    std::vector<Event> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Rng er = Rng::stream(seed, role, i);
      events.push_back(generate_event(detector, er));
    }
    return events;
  };
  const std::vector<Event> train = make_events(0, n_train);
  const std::vector<Event> val = make_events(1, 1);
  const std::vector<Event> payloads = make_events(2, 4);

  PipelineConfig cfg;
  cfg.embedding.epochs = 4;
  cfg.frnn.radius = 0.6f;
  cfg.filter.epochs = 2;
  cfg.gnn.hidden_dim = 8;
  cfg.gnn.num_layers = 1;
  cfg.gnn.mlp_hidden = 1;
  cfg.gnn_train.epochs = 1;
  cfg.gnn_train.batch_size = 64;
  cfg.gnn_train.shadow = {.depth = 2, .fanout = 3};
  cfg.use_learned_graphs = true;

  const std::size_t node_dim = train[0].node_features.cols();
  const std::size_t edge_dim = train[0].edge_features.cols();

  int exit_code = 0;
  std::uint64_t submit_rejected = 0;
  std::uint64_t futures_failed = 0;
  std::uint64_t futures_ok = 0;
  try {
    auto pipeline =
        std::make_unique<TrackingPipeline>(node_dim, edge_dim, cfg);
    std::string source = "warm";
    // Single-process serving driver: fit()'s collectives run on the
    // in-process communicator, so no peer rank can disagree on the arm.
    // NOLINT(trkx-collective-divergent): single-process, no peer ranks
    if (!model_path.empty()) {
      std::ifstream is(model_path, std::ios::binary);
      TRKX_CHECK_MSG(is.good(), "trkx-serve: cannot open --model "
                                    << model_path);
      pipeline->load(is);
      source = model_path;
      TRKX_INFO << "trkx-serve: loaded pipeline from " << model_path;
    } else {
      TRKX_INFO << "trkx-serve: warm-training tiny pipeline ("
                << train.size() << " events)";
      // NOLINT(trkx-collective-unguarded): single-process, no peer ranks
      pipeline->fit(train, val);
    }
    if (!save_model.empty()) {
      std::ostringstream bytes;
      pipeline->save(bytes);
      atomic_write_file(save_model, bytes.str());
      TRKX_INFO << "trkx-serve: saved pipeline to " << save_model;
    }
    if (!ckpt_dir.empty() && args.has("write-checkpoint")) {
      std::filesystem::create_directories(ckpt_dir);
      Adam opt(pipeline->gnn().store, AdamOptions{});
      write_checkpoint(checkpoint_path(ckpt_dir, 1), TrainCheckpointState{},
                       pipeline->gnn().store, opt);
      TRKX_INFO << "trkx-serve: wrote checkpoint to " << ckpt_dir;
    }

    serve::ReplicaSet replicas(node_dim, edge_dim, cfg);
    replicas.install(std::move(pipeline), source);

    serve::ServeServer server(replicas, serve_cfg);
    server.start();

    const auto t_start = std::chrono::steady_clock::now();
    std::vector<std::future<serve::ServeResult>> futures;
    futures.reserve(static_cast<std::size_t>(n_events));
    for (int i = 0; i < n_events; ++i) {
      if (g_reload_requested != 0 || (reload_every > 0 && i > 0 &&
                                      i % reload_every == 0)) {
        g_reload_requested = 0;
        if (ckpt_dir.empty()) {
          TRKX_WARN << "trkx-serve: reload requested but no "
                       "--checkpoint-dir; ignoring";
        } else {
          replicas.reload_from_checkpoint_dir(ckpt_dir);
        }
      }
      // Priority mix: every 3rd request low, every 5th high.
      serve::Priority prio = serve::Priority::kNormal;
      if (i % 3 == 2) prio = serve::Priority::kLow;
      if (i % 5 == 4) prio = serve::Priority::kHigh;
      const Event& payload =
          payloads[static_cast<std::size_t>(i) % payloads.size()];
      try {
        futures.push_back(server.submit(payload, prio));
      } catch (const Error& e) {
        ++submit_rejected;  // typed fast rejection: overload or stopped
        TRKX_DEBUG << "trkx-serve: request " << i << " rejected: "
                   << e.what();
      }
      if (rate > 0.0) {
        // Open-loop pacing: sleep to the next slot of the offered rate.
        const auto next = t_start + std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>((i + 1) / rate));
        std::this_thread::sleep_until(next);
      }
    }
    for (std::future<serve::ServeResult>& f : futures) {
      try {
        const serve::ServeResult r = f.get();
        ++futures_ok;
        TRKX_DEBUG << "trkx-serve: " << r.tracks.size() << " tracks in "
                   << r.total_seconds() * 1e3 << " ms (level "
                   << r.degrade_level << ")";
      } catch (const Error& e) {
        ++futures_failed;  // typed failure: the degradation ladder at work
        TRKX_DEBUG << "trkx-serve: request failed: " << e.what();
      }
    }
    server.stop();

    std::ostringstream os;
    const serve::ServeCounters c = server.counters();
    os << "serve.accepted=" << c.accepted << "\n"
       << "serve.rejected.queue_full=" << c.rejected_queue_full << "\n"
       << "serve.rejected.shed_low=" << c.rejected_shed_low << "\n"
       << "serve.rejected.admit_fault=" << c.rejected_admit_fault << "\n"
       << "serve.shed.queued=" << c.shed_queued << "\n"
       << "serve.deadline.expired=" << c.deadline_expired << "\n"
       << "serve.stage.timeout=" << c.stage_timeouts << "\n"
       << "serve.retry=" << c.retries << "\n"
       << "serve.retry.exhausted=" << c.retries_exhausted << "\n"
       << "serve.completed=" << c.completed << "\n"
       << "serve.failed=" << c.failed << "\n"
       << "serve.fit.skipped=" << c.fit_skipped << "\n"
       << "serve.degrade.transitions=" << server.degrade_transitions() << "\n"
       << "serve.reload.ok=" << replicas.reloads_ok() << "\n"
       << "serve.reload.fail=" << replicas.reloads_failed() << "\n"
       << "serve.replica.generation=" << replicas.generation() << "\n"
       << "serve.submit.rejected=" << submit_rejected << "\n"
       << "serve.result.ok=" << futures_ok << "\n"
       << "serve.result.failed=" << futures_failed << "\n"
       << "serve.exit=ok\n";
    // The driver's stdout is its machine-readable contract with the CI
    // serving leg. NOLINT(trkx-io): counter output, not diagnostics.
    std::cout << os.str() << std::flush;
  } catch (const std::exception& e) {
    // An escape to here means the server *died* rather than degraded —
    // exactly what the exit code must make loud.
    TRKX_ERROR << "trkx-serve: fatal: " << e.what();
    exit_code = 1;
  }
  return exit_code;
}
