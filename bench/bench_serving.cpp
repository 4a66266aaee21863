// Serving-path load test: offered-load sweep against the src/serve
// inference server, including past saturation — the robustness claim is
// not "the server is fast" but "the accepted-request p99 stays bounded
// when the offered load is 2x what the workers can drain", because the
// bounded admission queue and the degradation ladder shed the excess
// instead of queueing it.
//
//   ./bench_serving [--requests 48] [--mean-particles 8] [--workers 2]
//                   [--queue-depth 3] [--json-out serving.json]
//                   [--assert-p99-ratio 0]
//
// Phase 1 calibrates the per-event service time closed-loop (one request
// in flight), sizing the offered-load points at 0.5x / 1x / 2x the
// measured saturation throughput. Phase 2 replays each point open-loop:
// the submitter paces on the offered schedule and never blocks on
// completions, exactly like an upstream event stream. Accepted-request
// latency percentiles are measured submit-to-completion, so queueing
// delay is included; rejections (full queue) are counted, not timed.
//
// --assert-p99-ratio R turns the bench into a self-checking gate: exit 1
// unless p99(2x) <= R * p99(0.5x) — the ctest serving_bounded_p99 runs
// this at perf-smoke scale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace trkx;

namespace {

using Clock = std::chrono::steady_clock;

double pctl(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct LoadPoint {
  double factor = 0.0;       ///< offered load / saturation throughput
  double offered_rps = 0.0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;  ///< completed / wall
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  std::uint64_t submitted = 0, rejected = 0, completed = 0, failed = 0;
};

LoadPoint run_point(serve::ServeServer& server,
                    const std::vector<Event>& payloads, double factor,
                    double offered_rps, int n_requests,
                    std::int64_t deadline_ms) {
  LoadPoint out;
  out.factor = factor;
  out.offered_rps = offered_rps;
  std::vector<std::optional<std::future<serve::ServeResult>>> futures(
      static_cast<std::size_t>(n_requests));
  const auto t0 = Clock::now();
  for (int i = 0; i < n_requests; ++i) {
    // Open-loop: pace on the offered schedule, never on completions.
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(i / offered_rps)));
    const std::size_t idx = static_cast<std::size_t>(i);
    ++out.submitted;
    try {
      futures[idx] = server.submit(
          payloads[idx % payloads.size()], serve::Priority::kNormal,
          serve::Deadline::after_ms(deadline_ms));
    } catch (const Error&) {
      ++out.rejected;  // fast typed rejection is the success mode here
    }
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i].has_value()) continue;
    try {
      // latency_seconds is stamped by the worker at completion time, so
      // collecting futures in submission order cannot inflate the tail.
      const serve::ServeResult r = futures[i]->get();
      latencies_ms.push_back(r.latency_seconds * 1e3);
      ++out.completed;
    } catch (const Error&) {
      ++out.failed;  // deadline-abandoned under overload: typed, counted
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.throughput_rps =
      out.wall_s > 0.0 ? static_cast<double>(out.completed) / out.wall_s : 0.0;
  out.p50_ms = pctl(latencies_ms, 0.50);
  out.p95_ms = pctl(latencies_ms, 0.95);
  out.p99_ms = pctl(latencies_ms, 0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const int n_requests = args.get_int("requests", 48);
  const double mean_particles = args.get_double("mean-particles", 8.0);
  const double assert_ratio = args.get_double("assert-p99-ratio", 0.0);

  // Fixture: tiny learned-graph pipeline, warm replica.
  DetectorConfig detector;
  detector.mean_particles = mean_particles;
  detector.noise_fraction = 0.05;
  Rng rng(17);
  std::vector<Event> train, payloads;
  for (int i = 0; i < 2; ++i) {
    Rng er = rng.split();
    train.push_back(generate_event(detector, er));
  }
  for (int i = 0; i < 4; ++i) {
    Rng er = rng.split();
    payloads.push_back(generate_event(detector, er));
  }
  PipelineConfig cfg;
  cfg.embedding.epochs = 2;
  cfg.frnn.radius = 0.6f;
  cfg.filter.epochs = 2;
  cfg.gnn.hidden_dim = 8;
  cfg.gnn.num_layers = 1;
  cfg.gnn.mlp_hidden = 1;
  cfg.gnn_train.epochs = 1;
  cfg.gnn_train.batch_size = 64;
  cfg.gnn_train.shadow = {.depth = 2, .fanout = 3};
  cfg.gnn_train.evaluate_every_epoch = false;
  cfg.use_learned_graphs = true;
  const std::size_t node_dim = train[0].node_features.cols();
  const std::size_t edge_dim = train[0].edge_features.cols();
  auto pipeline = std::make_unique<TrackingPipeline>(node_dim, edge_dim, cfg);
  pipeline->fit(train, {train.back()});

  serve::ReplicaSet replicas(node_dim, edge_dim, cfg);
  replicas.install(std::move(pipeline), "bench");

  serve::ServeConfig serve_cfg;
  serve_cfg.workers = args.get_int("workers", 2);
  serve_cfg.queue_depth =
      static_cast<std::size_t>(args.get_int("queue-depth", 3));
  serve_cfg.b_field_tesla = detector.b_field;
  serve::ServeServer server(replicas, serve_cfg);
  server.start();

  // Phase 1: closed-loop calibration — one request in flight, so the
  // median latency is the per-event service time.
  std::vector<double> calib_ms;
  for (int i = 0; i < 8; ++i) {
    const auto t0 = Clock::now();
    server.submit(payloads[static_cast<std::size_t>(i) % payloads.size()],
                  serve::Priority::kNormal)
        .get();
    calib_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  const double service_ms = pctl(calib_ms, 0.5);
  const double saturation_rps =
      static_cast<double>(serve_cfg.workers) * 1e3 / service_ms;
  std::printf("calibration: service %.2f ms/event -> saturation %.1f req/s\n",
              service_ms, saturation_rps);

  BenchJsonWriter json("serving");
  std::printf("%-8s %-12s %-12s %-9s %-9s %-9s %-22s\n", "load", "offered/s",
              "completed/s", "p50[ms]", "p95[ms]", "p99[ms]",
              "acc/rej/fail");
  std::vector<LoadPoint> points;
  // The 0.5x point runs with a loose deadline (4x service); the measured
  // p99 there then sizes the overload points' deadline at 2x that p99.
  // This makes the 3x acceptance bound structural: an accepted overload
  // request can overshoot its deadline by at most one stage (the checks
  // sit between stages), so p99(2x) <= 2*p99(0.5x) + one service time
  // <= 3*p99(0.5x).
  std::int64_t deadline_ms =
      std::max<std::int64_t>(2, static_cast<std::int64_t>(4.0 * service_ms));
  for (double factor : {0.5, 1.0, 2.0}) {
    const LoadPoint p =
        run_point(server, payloads, factor, factor * saturation_rps,
                  n_requests, deadline_ms);
    if (factor == 0.5 && p.p99_ms > 0.0) {
      deadline_ms = std::max<std::int64_t>(
          2, static_cast<std::int64_t>(2.0 * p.p99_ms));
      std::printf("  (overload deadline set to %lld ms = 2 x p99 at 0.5x)\n",
                  static_cast<long long>(deadline_ms));
    }
    std::printf("%-8.2f %-12.1f %-12.1f %-9.2f %-9.2f %-9.2f "
                "%llu/%llu/%llu\n",
                p.factor, p.offered_rps, p.throughput_rps, p.p50_ms, p.p95_ms,
                p.p99_ms, static_cast<unsigned long long>(p.completed),
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.failed));
    json.series("load_" + std::to_string(factor).substr(0, 3))
        .param("load_factor", std::to_string(factor))
        .param("workers", static_cast<long long>(serve_cfg.workers))
        .param("queue_depth",
               static_cast<long long>(serve_cfg.queue_depth))
        .param("requests", static_cast<long long>(n_requests))
        .metric("offered_rps", p.offered_rps)
        .metric("throughput_rps", p.throughput_rps)
        .metric("p50_ms", p.p50_ms)
        .metric("p95_ms", p.p95_ms)
        .metric("p99_ms", p.p99_ms)
        .metric("completed", static_cast<double>(p.completed))
        .metric("rejected", static_cast<double>(p.rejected))
        .metric("failed", static_cast<double>(p.failed));
    points.push_back(p);
  }
  // The calibration series carries the closed-loop (one in flight,
  // load_factor 0) numbers in the same shape as the load points so the
  // schema check can require the metric set uniformly.
  json.series("calibration")
      .param("load_factor", "0")
      .param("workers", static_cast<long long>(serve_cfg.workers))
      .param("queue_depth", static_cast<long long>(serve_cfg.queue_depth))
      .param("mean_particles", std::to_string(mean_particles))
      .metric("service_ms", service_ms)
      .metric("saturation_rps", saturation_rps)
      .metric("throughput_rps", 1e3 / service_ms)
      .metric("p50_ms", pctl(calib_ms, 0.50))
      .metric("p95_ms", pctl(calib_ms, 0.95))
      .metric("p99_ms", pctl(calib_ms, 0.99));
  server.stop();
  json.write(args.get("json-out", ""));

  if (assert_ratio > 0.0) {
    // The acceptance gate: at 2x saturation the server must still be
    // serving (completed > 0) and the accepted p99 must stay within
    // assert_ratio of the uncontended p99 — shedding, not queueing.
    const LoadPoint& low = points.front();
    const LoadPoint& high = points.back();
    const double ratio =
        low.p99_ms > 0.0 ? high.p99_ms / low.p99_ms : 0.0;
    std::printf("p99 ratio (2.0x / 0.5x) = %.2f (gate %.2f), completed at "
                "2.0x = %llu\n",
                ratio, assert_ratio,
                static_cast<unsigned long long>(high.completed));
    if (high.completed == 0 || ratio > assert_ratio) {
      std::printf("FAIL: serving tail latency not bounded under overload\n");
      return 1;
    }
    std::printf("OK: bounded p99 under 2x overload\n");
  }
  return 0;
}
