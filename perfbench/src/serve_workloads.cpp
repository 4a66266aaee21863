// Serving workloads (serve-steady, serve-burst): open-loop event streams
// against ServeServer over a learned-graph replica that runs all five
// stages (embed, filter, GNN, build, fit).
//
// A run sets up several times. Each set-up generates the events, trains a
// replica with TrackingPipeline::fit(), starts a server and sends a few
// closed-loop warm-up requests; the last set-up's server then takes the
// timed schedule. Every set-up trains from the same inputs, so the replicas
// must be byte-identical, and the run checks it.
//
// Requests are timed from their scheduled arrival, so a stall also counts
// against the requests it delays. Rates, deadline and latency limit are
// constants from workloads.json.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "detector/presets.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/error.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using trkx::Event;
namespace serve = trkx::serve;

enum class Outcome {
  kCompleted, kRejected, kShed, kExpired, kFailed, kUntyped
};

/// One request of the schedule and what became of it.
struct Request {
  double due_s = 0.0;  ///< scheduled arrival, seconds after window start
  std::size_t event = 0;
  serve::Priority priority = serve::Priority::kNormal;
  double lag_s = 0.0;  ///< how late the generator submitted it
  Outcome outcome = Outcome::kFailed;
  double latency_s = 0.0;  ///< scheduled arrival to completion
  serve::ServeResult result;
};

/// Fixed-count arrival schedule: `rate` requests per second spread as a
/// uniform (Poisson-conditioned) sample over [from, to).
void add_arrivals(std::vector<Request>& out, trkx::Rng& rng, double rate,
                  double from, double to) {
  const std::size_t n =
      static_cast<std::size_t>(std::llround(rate * (to - from)));
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.due_s = from + (to - from) * rng.uniform();
    out.push_back(r);
  }
}

bool same_tracks(const std::vector<trkx::TrackCandidate>& a,
                 const std::vector<trkx::TrackCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].hits != b[i].hits) return false;
  return true;
}

std::string save_bytes(const trkx::TrackingPipeline& pipeline) {
  std::ostringstream os;
  pipeline.save(os);
  return os.str();
}

struct Replica {
  std::unique_ptr<serve::ReplicaSet> replicas;
  std::unique_ptr<serve::ServeServer> server;
};

}  // namespace

void run_serve(const RunContext& ctx, const Params& p, Report& report) {
  const trkx::DatasetSpec spec = trkx::ex3_spec(p.num("scale"));
  const std::string traffic = p.str("traffic");
  TRKX_CHECK_MSG(traffic == "steady" || traffic == "burst",
                 "--traffic must be steady or burst");
  const bool steady = traffic == "steady";

  trkx::PipelineConfig cfg;
  cfg.embedding.epochs = p.count("embed-epochs");
  cfg.filter.epochs = p.count("filter-epochs");
  cfg.frnn.radius = static_cast<float>(p.num("frnn-radius"));
  cfg.gnn.hidden_dim = p.count("hidden");
  cfg.gnn.num_layers = p.count("layers");
  cfg.gnn.mlp_hidden = spec.mlp_hidden_layers - 1;
  cfg.gnn_train.epochs = p.count("gnn-epochs");
  cfg.gnn_train.shadow.depth = p.count("depth");
  cfg.gnn_train.shadow.fanout = p.count("fanout");
  cfg.use_learned_graphs = true;
  serve::ServeConfig sc;
  sc.workers = static_cast<int>(p.integer("workers"));
  sc.queue_depth = p.count("queue-depth");
  sc.b_field_tesla = spec.detector.b_field;
  const std::size_t setups = p.count("setups");
  TRKX_CHECK_MSG(setups >= 2, "--setups must be >= 2");
  const std::size_t warmup = p.count("warmup-requests");
  const double limit_s = 1e-3 * p.num("latency-limit-ms");
  const double deadline_s = steady ? 0.0 : 1e-3 * p.num("deadline-ms");

  // Input selection, before any timing. The replica is the deployed model:
  // it trains on a fixed event set, so only the traffic (event pool and
  // schedule) comes from the seed. Served events are fixed in size; only
  // hits matter, because the pipeline rebuilds candidate edges from its
  // embedding.
  const double hits = p.num("hits"), tol = p.num("size-tolerance");
  const auto replica_seed =
      static_cast<std::uint64_t>(p.integer("replica-seed"));
  const EventKeys fit_keys = choose_event_keys(
      spec.detector, replica_seed, 0, p.count("fit-events"), hits, 0.0, tol);
  const EventKeys val_keys =
      choose_event_keys(spec.detector, replica_seed, 1, 1, hits, 0.0, tol);
  const EventKeys pool_keys = choose_event_keys(
      spec.detector, ctx.seed, 2, p.count("pool-events"), hits, 0.0, tol);

  // The schedule, also from the seed.
  std::vector<Request> schedule;
  trkx::Rng rng = trkx::Rng::stream(ctx.seed, 0x5343484544ull);
  if (steady) {
    add_arrivals(schedule, rng, p.num("rate-rps"), 0.0, ctx.seconds);
  } else {
    const double period = p.num("period-s");
    const double burst = period * p.num("burst-share");
    for (double t = 0.0; t + period <= ctx.seconds + 1e-9; t += period) {
      add_arrivals(schedule, rng, p.num("burst-rps"), t, t + burst);
      add_arrivals(schedule, rng, p.num("quiet-rps"), t + burst, t + period);
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Request& a, const Request& b) {
              return a.due_s < b.due_s;
            });
  const double high_share = steady ? 0.0 : p.num("high-share");
  const double low_share = steady ? 0.0 : p.num("low-share");
  for (Request& r : schedule) {
    r.event = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(pool_keys.attempt.size()));
    r.event = std::min(r.event, pool_keys.attempt.size() - 1);
    const double u = rng.uniform();
    r.priority = u < high_share ? serve::Priority::kHigh
                 : u < high_share + low_share ? serve::Priority::kLow
                                              : serve::Priority::kNormal;
  }

  const int omp = omp_get_max_threads();
  note_threads(report,
               std::to_string(sc.workers) + " serve worker(s) x " +
                   std::to_string(omp) + " OMP + 1 generator; set-up: " +
                   std::to_string(omp) + " OMP + 1 prefetch producer",
               std::max(sc.workers * omp + 1, omp + 1));

  std::vector<double> setup_s, generate_s, fit_s, rss_mb;
  std::vector<std::string> replica_bytes;
  std::vector<Event> pool;
  Replica live;
  for (std::size_t i = 0; i < setups; ++i) {
    live.server.reset();  // stops the previous set-up's server
    live.replicas.reset();
    pool.clear();
    reset_peak_rss();
    const auto t0 = Clock::now();
    const std::vector<Event> fit_train = generate(spec.detector, fit_keys);
    const std::vector<Event> fit_val = generate(spec.detector, val_keys);
    pool = generate(spec.detector, pool_keys);
    generate_s.push_back(seconds_since(t0));
    const std::size_t nd = fit_train.front().node_features.cols();
    const std::size_t ed = fit_train.front().edge_features.cols();
    auto pipeline = std::make_unique<trkx::TrackingPipeline>(nd, ed, cfg);
    const auto tf = Clock::now();
    pipeline->fit(fit_train, fit_val);
    fit_s.push_back(seconds_since(tf));
    live.replicas = std::make_unique<serve::ReplicaSet>(nd, ed, cfg);
    live.replicas->install(std::move(pipeline), "perfbench");
    live.server = std::make_unique<serve::ServeServer>(*live.replicas, sc);
    live.server->start();
    for (std::size_t w = 0; w < warmup; ++w)
      live.server->submit(pool[w % pool.size()], serve::Priority::kNormal)
          .get();
    setup_s.push_back(seconds_since(t0));
    rss_mb.push_back(peak_rss_mb());
    replica_bytes.push_back(save_bytes(*live.replicas->acquire()->pipeline));
  }
  report.check("replica repeats exactly across set-ups",
               std::all_of(replica_bytes.begin(), replica_bytes.end(),
                           [&](const std::string& b) {
                             return b == replica_bytes.front();
                           }),
               std::to_string(setups) + " set-ups");

  // The timed window: open loop on the schedule, never on completions.
  serve::ServeServer& server = *live.server;
  const serve::ServeCounters before = server.counters();
  const std::uint64_t transitions_before = server.degrade_transitions();
  std::vector<std::optional<std::future<serve::ServeResult>>> futures(
      schedule.size());
  std::vector<Clock::time_point> submitted(schedule.size());
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Request& r = schedule[i];
    Event payload = pool[r.event];
    const serve::Deadline deadline =
        steady ? serve::Deadline()
               : serve::Deadline::at(at(r.due_s + deadline_s));
    std::this_thread::sleep_until(at(r.due_s));
    submitted[i] = Clock::now();
    r.lag_s = seconds_between(at(r.due_s), submitted[i]);
    try {
      futures[i] = server.submit(std::move(payload), r.priority, deadline);
    } catch (const serve::OverloadError&) {
      r.outcome = Outcome::kRejected;
    } catch (const trkx::Error&) {
      r.outcome = Outcome::kFailed;
    } catch (...) {
      r.outcome = Outcome::kUntyped;
    }
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!futures[i]) continue;
    Request& r = schedule[i];
    try {
      r.result = futures[i]->get();
      r.outcome = Outcome::kCompleted;
      // The worker times from admission; add the wait before admission.
      r.latency_s =
          seconds_between(at(r.due_s), submitted[i]) + r.result.latency_seconds;
    } catch (const serve::OverloadError&) {
      r.outcome = Outcome::kShed;
    } catch (const serve::DeadlineExceededError&) {
      r.outcome = Outcome::kExpired;
    } catch (const trkx::Error&) {
      r.outcome = Outcome::kFailed;
    } catch (...) {
      r.outcome = Outcome::kUntyped;
    }
  }
  const double window_s = std::max(ctx.seconds, seconds_since(start));
  const double cpu_s = process_cpu_seconds() - cpu0;
  rss_mb.push_back(peak_rss_mb());
  const serve::ServeCounters after = server.counters();
  const std::uint64_t transitions =
      server.degrade_transitions() - transitions_before;
  server.stop();

  // Accounting.
  std::size_t count[6] = {0, 0, 0, 0, 0, 0};
  for (const Request& r : schedule) ++count[static_cast<int>(r.outcome)];
  const std::size_t sent = schedule.size();
  const std::size_t completed = count[static_cast<int>(Outcome::kCompleted)];
  const std::size_t rejected = count[static_cast<int>(Outcome::kRejected)];
  const std::size_t shed = count[static_cast<int>(Outcome::kShed)];
  const std::size_t expired = count[static_cast<int>(Outcome::kExpired)];
  const std::size_t failed = count[static_cast<int>(Outcome::kFailed)];
  const std::size_t untyped = count[static_cast<int>(Outcome::kUntyped)];
  report.note("requests: sent " + std::to_string(sent) + ", completed " +
              std::to_string(completed) + ", rejected " +
              std::to_string(rejected) + ", shed " + std::to_string(shed) +
              ", expired " + std::to_string(expired) + ", failed " +
              std::to_string(failed) + ", untyped " + std::to_string(untyped));
  report.attempted = sent;
  // Refusing, shedding and expiring requests is the server's overload
  // policy; a failure is a request it lost or failed outside that policy.
  report.failed = steady ? sent - completed : failed + untyped;
  report.check("every error is typed", untyped == 0,
               std::to_string(untyped) + " untyped");
  report.check(
      "sent = completed + rejected + shed + expired + failed",
      sent == completed + rejected + shed + expired + failed + untyped &&
          after.completed - before.completed == completed &&
          (after.rejected_queue_full + after.rejected_shed_low +
           after.rejected_admit_fault) -
                  (before.rejected_queue_full + before.rejected_shed_low +
                   before.rejected_admit_fault) ==
              rejected &&
          after.failed - before.failed == shed + expired + failed,
      "server counters agree");

  std::vector<double> latency_ms, queue_ms, lag_ms;
  std::vector<double> stage_ms[serve::kNumStages];
  std::size_t within = 0, degraded = 0, not_level0 = 0;
  for (const Request& r : schedule) {
    lag_ms.push_back(1e3 * r.lag_s);
    if (r.outcome != Outcome::kCompleted) continue;
    latency_ms.push_back(1e3 * r.latency_s);
    queue_ms.push_back(
        1e3 * (r.result.latency_seconds - r.result.total_seconds()));
    for (int s = 0; s < serve::kNumStages; ++s)
      stage_ms[s].push_back(1e3 * r.result.stage_seconds[s]);
    if (r.latency_s <= limit_s) ++within;
    if (r.result.degrade_level >= 2) ++degraded;
    if (r.result.degrade_level != 0 || r.result.fit_skipped) ++not_level0;
  }
  report.check("p99 has at least 10 samples beyond it", completed >= 1000,
               std::to_string(completed) + " completed requests");

  // Offline oracle, outside the window: reconstruct() on the same replica.
  const trkx::TrackingPipeline& replica = *live.replicas->acquire()->pipeline;
  std::vector<trkx::PipelineOutput> offline;
  trkx::TrackingMetrics pool_tracks;
  std::size_t frnn_edges = 0, kept_edges = 0;
  for (const Event& e : pool) {
    offline.push_back(replica.reconstruct(e));
    pool_tracks.merge(offline.back().metrics);
    Event staged = e;
    replica.embed_stage(staged);
    frnn_edges += staged.num_edges();
    replica.filter_stage(staged, 1.0f);
    kept_edges += staged.num_edges();
  }
  if (steady) {
    report.check("every request completed at ladder level 0",
                 completed == sent && not_level0 == 0 && transitions == 0,
                 std::to_string(sent - completed) + " not completed, " +
                     std::to_string(not_level0) + " above level 0, " +
                     std::to_string(transitions) + " ladder transitions");
    if (ctx.sabotage == "oracle") {
      for (Request& r : schedule)
        if (r.outcome == Outcome::kCompleted && !r.result.tracks.empty()) {
          r.result.tracks.front().hits.pop_back();
          break;
        }
    }
    std::size_t mismatched = 0;
    trkx::TrackingMetrics served;
    for (const Request& r : schedule) {
      if (r.outcome != Outcome::kCompleted) continue;
      if (!same_tracks(r.result.tracks, offline[r.event].tracks)) ++mismatched;
      served.merge(trkx::score_tracks(pool[r.event], r.result.tracks,
                                      cfg.track));
    }
    report.check("served tracks equal offline reconstruct()", mismatched == 0,
                 std::to_string(mismatched) + " of " +
                     std::to_string(completed) + " differ");
    report.exact("serve.track_eff", served.efficiency());
  }
  report.exact("pipeline.frnn.edges_per_event",
               static_cast<double>(frnn_edges));
  report.exact("pipeline.filter.keep_ratio", static_cast<double>(kept_edges));

  // End to end.
  const double n_sent = static_cast<double>(std::max<std::size_t>(sent, 1));
  const double n_done =
      static_cast<double>(std::max<std::size_t>(completed, 1));
  report.metric("setup_s", median(setup_s), "s");
  report.metric("unit_cpu_ms", 1e3 * cpu_s / n_done, "ms");
  // Per second from the first scheduled arrival to the last completion.
  report.metric("goodput_per_s", static_cast<double>(within) / window_s,
                "1/s");
  report.metric("quality", pool_tracks.efficiency(), "ratio");
  char pct[160];
  std::snprintf(pct, sizeof pct,
                "latency ms: p50 %.2f p90 %.2f p95 %.2f p99 %.2f max %.2f",
                percentile(latency_ms, 0.5), percentile(latency_ms, 0.9),
                percentile(latency_ms, 0.95), percentile(latency_ms, 0.99),
                percentile(latency_ms, 1.0));
  report.note(pct);
  report.note("latency: " + std::to_string(latency_ms.size()) +
              " completed requests; limit " +
              std::to_string(1e3 * limit_s) + " ms; window " +
              std::to_string(window_s) + " s");

  // Per layer.
  report.metric("detector.generate_s", median(generate_s), "s");
  report.metric("pipeline.fit_s", median(fit_s), "s");
  const char* stage_names[serve::kNumStages] = {"embed", "filter", "gnn",
                                                "build", "fit_track"};
  for (int s = 0; s < serve::kNumStages; ++s) {
    const std::string base = std::string("pipeline.") + stage_names[s] + "_ms";
    report.metric(base + ".p50", percentile(stage_ms[s], 0.50), "ms");
    report.metric(base + ".p99", percentile(stage_ms[s], 0.99), "ms");
  }
  report.metric("pipeline.frnn.edges_per_event",
                static_cast<double>(frnn_edges) /
                    static_cast<double>(pool.size()),
                "count");
  report.metric("pipeline.filter.keep_ratio",
                frnn_edges == 0 ? 0.0
                                : static_cast<double>(kept_edges) /
                                      static_cast<double>(frnn_edges),
                "ratio");
  report.metric("serve.queue_wait_ms.p50", percentile(queue_ms, 0.50), "ms");
  report.metric("serve.queue_wait_ms.p99", percentile(queue_ms, 0.99), "ms");
  report.metric("serve.latency_ms.p50", percentile(latency_ms, 0.50), "ms");
  report.metric("serve.latency_ms.p99", percentile(latency_ms, 0.99), "ms");
  report.metric("serve.slo_share", static_cast<double>(within) / n_sent,
                "ratio");
  report.metric("serve.rejected_share", static_cast<double>(rejected) / n_sent,
                "ratio");
  report.metric("serve.shed_share", static_cast<double>(shed) / n_sent,
                "ratio");
  report.metric("serve.deadline_expired_share",
                static_cast<double>(expired) / n_sent, "ratio");
  report.metric("serve.degraded_share", static_cast<double>(degraded) / n_done,
                "ratio");
  report.metric("serve.ladder_transitions", static_cast<double>(transitions),
                "count");
  report.metric("serve.generator_lag_ms.p99", percentile(lag_ms, 0.99), "ms");

  if (ctx.trace) {
    // Request spans come from records the untraced run keeps as well, so
    // tracing adds nothing inside the window; assembling them is the cost.
    const auto t0 = Clock::now();
    SpanLog spans(ctx.origin);
    const double base = seconds_between(ctx.origin, start);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Request& r = schedule[i];
      const double due = base + r.due_s;
      const double sent_at = base + r.due_s + r.lag_s;
      const std::uint64_t group = i + 1;
      if (r.outcome != Outcome::kCompleted) {
        spans.add_at("serve.request.unserved", due, sent_at, 0, group);
        continue;
      }
      const double done = due + r.latency_s;
      const std::uint64_t id =
          spans.add_at("serve.request", due, done, 0, group);
      spans.add_at("serve.generator_lag", due, sent_at, id, group);
      double stage_at = done - r.result.total_seconds();
      spans.add_at("serve.queue_wait", sent_at, stage_at, id, group);
      for (int s = 0; s < serve::kNumStages; ++s) {
        const double d = r.result.stage_seconds[s];
        spans.add_at(std::string("pipeline.") + stage_names[s], stage_at,
                     stage_at + d, id, group);
        stage_at += d;
      }
    }
    if (!ctx.trace_out.empty()) spans.write_json(ctx.trace_out);
    report.metric("trace.overhead_pct", 100.0 * seconds_since(t0) / window_s,
                  "%");
    report.note("spans: " + std::to_string(spans.size()) + " recorded");
  }
  report.metric("peak_rss_mb", median(rss_mb), "MB");
  std::string setups_line = "set-ups [s]:";
  for (double v : setup_s) setups_line += " " + std::to_string(v);
  report.note(setups_line);
  std::string rss_line = "peak RSS per phase [MB]:";
  for (double v : rss_mb) rss_line += " " + std::to_string(v);
  report.note(rss_line);
}

}  // namespace perfbench
