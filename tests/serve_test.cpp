#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "detector/generator.hpp"
#include "nn/optimizer.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/track_fit.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

namespace fs = std::filesystem;

/// Serving-layer suite (ctest labels: chaos, tsan-stress). One tiny
/// learned-graph pipeline is trained once per binary; each test that needs
/// a warm replica reconstructs a pipeline from the saved bytes (cheap)
/// instead of re-training. Fault-site tests arm the global registry
/// explicitly and disarm it again, chaos_test-style.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DetectorConfig detector;
    // Dense enough that the served == offline and hot == cold oracles see
    // a wrong weight: with 8 particles per event, a 3× coarser served
    // filter cut and a reload that dropped the embedding and filter
    // weights both left every served track unchanged.
    detector.mean_particles = 30;
    detector.noise_fraction = 0.05;
    Rng rng(23);
    std::vector<Event> train;
    for (int i = 0; i < 2; ++i) {
      Rng er = rng.split();
      train.push_back(generate_event(detector, er));
    }
    for (int i = 0; i < 3; ++i) {
      Rng er = rng.split();
      payloads_.push_back(generate_event(detector, er));
    }
    cfg_.embedding.epochs = 2;
    cfg_.frnn.radius = 0.6f;
    cfg_.filter.epochs = 2;
    cfg_.gnn.hidden_dim = 8;
    cfg_.gnn.num_layers = 1;
    cfg_.gnn.mlp_hidden = 1;
    cfg_.gnn_train.epochs = 1;
    cfg_.gnn_train.batch_size = 64;
    cfg_.gnn_train.shadow = {.depth = 2, .fanout = 3};
    cfg_.gnn_train.evaluate_every_epoch = false;
    cfg_.use_learned_graphs = true;
    node_dim_ = train[0].node_features.cols();
    edge_dim_ = train[0].edge_features.cols();
    TrackingPipeline pipeline(node_dim_, edge_dim_, cfg_);
    pipeline.fit(train, {train.back()});
    std::ostringstream os;
    pipeline.save(os);
    model_bytes_ = os.str();
  }
  static void TearDownTestSuite() {
    payloads_.clear();
    model_bytes_.clear();
  }

  void SetUp() override { fault::Registry::global().clear(); }
  void TearDown() override { fault::Registry::global().clear(); }

  static std::unique_ptr<TrackingPipeline> make_pipeline() {
    auto p = std::make_unique<TrackingPipeline>(node_dim_, edge_dim_, cfg_);
    std::istringstream is(model_bytes_);
    p->load(is);
    return p;
  }

  static std::unique_ptr<serve::ReplicaSet> make_replicas() {
    auto replicas =
        std::make_unique<serve::ReplicaSet>(node_dim_, edge_dim_, cfg_);
    replicas->install(make_pipeline(), "warm");
    return replicas;
  }

  /// Write one valid checkpoint (epoch cursor `epoch`) into `dir`.
  static std::string write_ckpt(const fs::path& dir, std::uint64_t epoch) {
    auto p = make_pipeline();
    Adam opt(p->gnn().store, AdamOptions{});
    const std::string path = checkpoint_path(dir.string(), epoch);
    write_checkpoint(path, TrainCheckpointState{}, p->gnn().store, opt);
    return path;
  }

  static fs::path fresh_dir(const std::string& tag) {
    const fs::path dir = fs::temp_directory_path() / ("trkx_serve_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  static PipelineConfig cfg_;
  static std::size_t node_dim_, edge_dim_;
  static std::vector<Event> payloads_;
  static std::string model_bytes_;
};

PipelineConfig ServeTest::cfg_;
std::size_t ServeTest::node_dim_ = 0;
std::size_t ServeTest::edge_dim_ = 0;
std::vector<Event> ServeTest::payloads_;
std::string ServeTest::model_bytes_;

// ---------------------------------------------------------------------------
// Deadline semantics.

TEST_F(ServeTest, DeadlineUnboundedByDefault) {
  serve::Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.overshoot_ms(), 0.0);
  // after_ms(0) means "no budget", matching default_deadline_ms = 0.
  EXPECT_FALSE(serve::Deadline::after_ms(0).bounded());
  EXPECT_TRUE(serve::Deadline::after_ms(5).bounded());
}

TEST_F(ServeTest, DeadlineExpiresAndReportsOvershoot) {
  const auto past =
      serve::Deadline::Clock::now() - std::chrono::milliseconds(5);
  serve::Deadline d = serve::Deadline::at(past);
  EXPECT_TRUE(d.expired());
  EXPECT_GT(d.overshoot_ms(), 0.0);
  EXPECT_FALSE(serve::Deadline::after_ms(60'000).expired());
}

// ---------------------------------------------------------------------------
// AdmissionQueue: bounded, typed rejection, priority lanes, shed, close.

serve::Request make_request(std::uint64_t id, serve::Priority prio) {
  return serve::Request(id, prio, serve::Deadline{}, Event{});
}

TEST_F(ServeTest, QueueRejectsWhenFullWithTypedError) {
  serve::AdmissionQueue q(2);
  q.push(make_request(1, serve::Priority::kNormal));
  q.push(make_request(2, serve::Priority::kNormal));
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.occupancy(), 1.0);
  EXPECT_THROW(q.push(make_request(3, serve::Priority::kNormal)),
               serve::OverloadError);
  EXPECT_EQ(q.depth(), 2u);  // the rejected request was not enqueued
}

TEST_F(ServeTest, QueuePopsHighestPriorityFirstFifoWithin) {
  serve::AdmissionQueue q(8);
  q.push(make_request(1, serve::Priority::kLow));
  q.push(make_request(2, serve::Priority::kNormal));
  q.push(make_request(3, serve::Priority::kHigh));
  q.push(make_request(4, serve::Priority::kHigh));
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) order.push_back(q.pop(100)->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 2, 1}));
  EXPECT_FALSE(q.pop(1).has_value());  // empty: timeout, not a hang
}

TEST_F(ServeTest, QueueShedFailsPromisesOldestFirst) {
  serve::AdmissionQueue q(8);
  serve::Request low = make_request(1, serve::Priority::kLow);
  std::future<serve::ServeResult> low_future = low.result.get_future();
  q.push(std::move(low));
  q.push(make_request(2, serve::Priority::kHigh));
  EXPECT_EQ(q.shed(serve::Priority::kLow, 8), 1u);
  EXPECT_THROW(low_future.get(), serve::OverloadError);
  EXPECT_EQ(q.depth(), 1u);  // the kHigh request survived the shed
  EXPECT_EQ(q.pop(100)->id, 2u);
}

TEST_F(ServeTest, QueueCloseRejectsPushesAndDrains) {
  serve::AdmissionQueue q(4);
  q.push(make_request(1, serve::Priority::kNormal));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_THROW(q.push(make_request(2, serve::Priority::kNormal)),
               serve::ServerStoppedError);
  EXPECT_EQ(q.pop(0)->id, 1u);        // queued work stays poppable
  EXPECT_FALSE(q.pop(0).has_value()); // closed + drained: immediate nullopt
}

// ---------------------------------------------------------------------------
// DegradeController: hysteresis ladder + stage-plan mapping.

TEST_F(ServeTest, DegradeLadderEscalatesAndRecoversWithHysteresis) {
  serve::DegradeConfig cfg;
  cfg.high = 0.8;
  cfg.low = 0.2;
  cfg.ewma_alpha = 1.0;  // no smoothing: the test drives raw occupancy
  cfg.sustain = 2;
  serve::DegradeController ladder(cfg);
  EXPECT_EQ(ladder.update(0.9), 0);  // one reading is not sustained
  EXPECT_EQ(ladder.update(0.9), 1);  // second consecutive: escalate
  EXPECT_EQ(ladder.update(0.9), 1);  // counter reset: needs 2 more
  EXPECT_EQ(ladder.update(0.9), 2);
  EXPECT_EQ(ladder.update(0.5), 2);  // mid-band: no movement either way
  EXPECT_EQ(ladder.update(0.1), 2);
  EXPECT_EQ(ladder.update(0.1), 1);  // sustained low: step back down
  EXPECT_EQ(ladder.transitions(), 3u);
}

TEST_F(ServeTest, DegradePlanMapsLevelsToStageChanges) {
  serve::DegradeConfig cfg;
  cfg.high = 0.5;
  cfg.low = 0.1;
  cfg.ewma_alpha = 1.0;
  cfg.sustain = 1;
  cfg.coarse_filter_scale = 4.0f;
  serve::DegradeController ladder(cfg);
  EXPECT_FALSE(ladder.plan().shed_low);
  ladder.update(1.0);  // -> 1: shed-low
  serve::StagePlan p1 = ladder.plan();
  EXPECT_TRUE(p1.shed_low);
  EXPECT_FALSE(p1.skip_fit);
  ladder.update(1.0);  // -> 2: + skip-fit
  EXPECT_TRUE(ladder.plan().skip_fit);
  EXPECT_EQ(ladder.plan().filter_threshold_scale, 1.0f);
  ladder.update(1.0);  // -> 3: + coarse filter
  serve::StagePlan p3 = ladder.plan();
  EXPECT_EQ(p3.level, 3);
  EXPECT_EQ(p3.filter_threshold_scale, 4.0f);
  ladder.update(1.0);  // max_level: no further escalation
  EXPECT_EQ(ladder.level(), 3);
}

TEST_F(ServeTest, DegradeRejectsLowAtOrAboveHigh) {
  serve::DegradeConfig cfg;
  cfg.low = cfg.high;
  EXPECT_THROW((serve::DegradeController{cfg}), Error);
  cfg.low = cfg.high + 0.1;
  EXPECT_THROW((serve::DegradeController{cfg}), Error);
}

// ---------------------------------------------------------------------------
// ServeServer end-to-end.

TEST_F(ServeTest, ServesRequestsEndToEnd) {
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 8;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  std::vector<std::future<serve::ServeResult>> futures;
  for (const Event& e : payloads_)
    futures.push_back(server.submit(e, serve::Priority::kNormal));
  for (auto& f : futures) {
    const serve::ServeResult r = f.get();
    EXPECT_GT(r.tracks.size(), 0u);
    EXPECT_FALSE(r.fit_skipped);
    EXPECT_EQ(r.degrade_level, 0);
    EXPECT_EQ(r.replica_generation, 1u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GT(r.latency_seconds, 0.0);
    EXPECT_GE(r.latency_seconds, r.total_seconds());  // includes queue wait
  }
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_EQ(after.accepted - before.accepted, payloads_.size());
  EXPECT_EQ(after.completed - before.completed, payloads_.size());
  EXPECT_EQ(after.failed, before.failed);
}

TEST_F(ServeTest, SubmitOnStoppedServerThrowsTyped) {
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::ServeServer server(*replicas, cfg);
  // Never started:
  EXPECT_THROW(server.submit(payloads_[0], serve::Priority::kNormal),
               serve::ServerStoppedError);
  server.start();
  server.stop();
  EXPECT_THROW(server.submit(payloads_[0], serve::Priority::kNormal),
               serve::ServerStoppedError);
}

TEST_F(ServeTest, ServerRejectsInvalidConfig) {
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 0;
  EXPECT_THROW((serve::ServeServer{*replicas, cfg}), Error);
  cfg = serve::ServeConfig{};
  cfg.retry_budget = -1;
  EXPECT_THROW((serve::ServeServer{*replicas, cfg}), Error);
}

TEST_F(ServeTest, BackpressureRejectsBurstBeyondQueue) {
  // One worker pinned down by a delay fault + a depth-2 queue: a burst of
  // submits must get fast OverloadError rejections, not unbounded queueing.
  fault::Registry::global().arm_from_string("serve.stage:delay:every=1:ms=40");
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 2;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  std::vector<std::future<serve::ServeResult>> futures;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      futures.push_back(
          server.submit(payloads_[static_cast<std::size_t>(i) %
                                  payloads_.size()],
                        serve::Priority::kNormal));
    } catch (const serve::OverloadError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());  // accepted work finishes
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_EQ(after.rejected_queue_full - before.rejected_queue_full, rejected);
  EXPECT_EQ(after.accepted - before.accepted, futures.size());
}

TEST_F(ServeTest, PreExpiredDeadlineAbandonedInQueue) {
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  auto f = server.submit(payloads_[0], serve::Priority::kNormal,
                         serve::Deadline::at(serve::Deadline::Clock::now()));
  EXPECT_THROW(f.get(), serve::DeadlineExceededError);
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_GE(after.deadline_expired - before.deadline_expired, 1u);
  EXPECT_GE(after.failed - before.failed, 1u);
}

TEST_F(ServeTest, DeadlineAbandonmentBetweenStagesChaos) {
  // Every stage attempt sleeps 30 ms against a 5 ms budget: the request
  // must be abandoned at an inter-stage check with the typed error — the
  // worker survives to serve the next (unbounded) request.
  fault::Registry::global().arm_from_string("serve.stage:delay:every=1:ms=30");
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::ServeServer server(*replicas, cfg);
  server.start();
  auto doomed = server.submit(payloads_[0], serve::Priority::kNormal,
                              serve::Deadline::after_ms(5));
  EXPECT_THROW(doomed.get(), serve::DeadlineExceededError);
  fault::Registry::global().clear();
  auto fine = server.submit(payloads_[1], serve::Priority::kNormal);
  EXPECT_NO_THROW(fine.get());
  server.stop();
}

TEST_F(ServeTest, StageFaultRetriedThenSucceedsChaos) {
  fault::Registry::global().arm_from_string("serve.stage:error:nth=1");
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.retry_budget = 1;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  const serve::ServeResult r =
      server.submit(payloads_[0], serve::Priority::kNormal).get();
  EXPECT_EQ(r.retries, 1u);
  EXPECT_GT(r.tracks.size(), 0u);
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_EQ(after.retries - before.retries, 1u);
  EXPECT_EQ(after.retries_exhausted, before.retries_exhausted);
}

TEST_F(ServeTest, PersistentStageFaultExhaustsRetriesChaos) {
  fault::Registry::global().arm_from_string("serve.stage:error:every=1");
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.retry_budget = 2;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  auto f = server.submit(payloads_[0], serve::Priority::kNormal);
  EXPECT_THROW(f.get(), serve::RetryExhaustedError);
  // The worker absorbed the failure; the server still serves fault-free
  // requests afterwards.
  fault::Registry::global().clear();
  EXPECT_NO_THROW(server.submit(payloads_[1], serve::Priority::kNormal).get());
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_EQ(after.retries - before.retries, 2u);  // budget fully spent
  EXPECT_GE(after.retries_exhausted - before.retries_exhausted, 1u);
  EXPECT_GE(after.failed - before.failed, 1u);
}

TEST_F(ServeTest, SlowStageTimesOutChaos) {
  // 30 ms injected stage delay against a 5 ms per-stage budget with no
  // retries: the attempt "succeeds" but blows its budget -> typed
  // StageTimeoutError (the post-hoc timeout treats it as a failed attempt).
  fault::Registry::global().arm_from_string("serve.stage:delay:nth=1:ms=30");
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.retry_budget = 0;
  cfg.stage_timeout_ms = 5;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  auto f = server.submit(payloads_[0], serve::Priority::kNormal);
  EXPECT_THROW(f.get(), serve::StageTimeoutError);
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_GE(after.stage_timeouts - before.stage_timeouts, 1u);
}

TEST_F(ServeTest, AdmitFaultIsFastTypedRejectionChaos) {
  fault::Registry::global().arm_from_string("serve.admit:error:nth=1");
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  EXPECT_THROW(server.submit(payloads_[0], serve::Priority::kNormal),
               serve::OverloadError);
  // nth=1 consumed: the very next submit is admitted and served.
  EXPECT_NO_THROW(server.submit(payloads_[0], serve::Priority::kNormal).get());
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_EQ(after.rejected_admit_fault - before.rejected_admit_fault, 1u);
}

TEST_F(ServeTest, DegradationLadderShedsLowAndSkipsFit) {
  // sustain=1 + high=0 makes every submit escalate one level, so the
  // ladder walks normal -> shed-low -> skip-fit deterministically without
  // needing real sustained overload in a unit test.
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 8;
  cfg.degrade.high = 0.0;
  cfg.degrade.low = -1.0;
  cfg.degrade.ewma_alpha = 1.0;
  cfg.degrade.sustain = 1;
  serve::ServeServer server(*replicas, cfg);
  const serve::ServeCounters before = server.counters();
  server.start();
  // Two submits: level goes 1 then 2 (admission updates the ladder).
  auto f1 = server.submit(payloads_[0], serve::Priority::kNormal);
  auto f2 = server.submit(payloads_[1], serve::Priority::kNormal);
  EXPECT_NO_THROW(f1.get());
  const serve::ServeResult r2 = f2.get();
  EXPECT_GE(server.degrade_level(), 1);
  EXPECT_GE(server.degrade_transitions(), 1u);
  // At level >= 1 low-priority admission is shed with a typed error.
  EXPECT_THROW(server.submit(payloads_[0], serve::Priority::kLow),
               serve::OverloadError);
  // By the second request the plan was at skip-fit: tracks, no fits.
  EXPECT_TRUE(r2.fit_skipped);
  EXPECT_TRUE(r2.fits.empty());
  EXPECT_GT(r2.tracks.size(), 0u);
  server.stop();
  const serve::ServeCounters after = server.counters();
  EXPECT_GE(after.rejected_shed_low - before.rejected_shed_low, 1u);
  EXPECT_GE(after.fit_skipped - before.fit_skipped, 1u);
}

// ---------------------------------------------------------------------------
// Oracles: the served request path runs TrackingPipeline::run_stages, the
// same stage sequence as offline reconstruct().

void expect_same_tracks(const std::vector<TrackCandidate>& served,
                        const std::vector<TrackCandidate>& expected) {
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_EQ(served[i].hits, expected[i].hits) << "track " << i;
}

void expect_same_fits(const std::vector<FittedTrack>& served,
                      const std::vector<FittedTrack>& expected) {
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].pt, expected[i].pt) << "fit " << i;
    EXPECT_EQ(served[i].phi0, expected[i].phi0) << "fit " << i;
    EXPECT_EQ(served[i].eta, expected[i].eta) << "fit " << i;
    EXPECT_EQ(served[i].z0, expected[i].z0) << "fit " << i;
    EXPECT_EQ(served[i].charge, expected[i].charge) << "fit " << i;
    EXPECT_EQ(served[i].circle_chi2, expected[i].circle_chi2) << "fit " << i;
    EXPECT_EQ(served[i].line_chi2, expected[i].line_chi2) << "fit " << i;
  }
}

TEST_F(ServeTest, ServedRequestEqualsOfflineReconstruct) {
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.b_field_tesla = 3.5;  // not the default: the server's field is used
  serve::ServeServer server(*replicas, cfg);
  server.start();
  const TrackingPipeline& replica = *replicas->acquire()->pipeline;
  std::size_t fitted = 0;
  for (const Event& e : payloads_) {
    const serve::ServeResult r =
        server.submit(e, serve::Priority::kNormal).get();
    ASSERT_EQ(r.degrade_level, 0);
    ASSERT_FALSE(r.fit_skipped);
    expect_same_tracks(r.tracks, replica.reconstruct(e).tracks);
    std::vector<FittedTrack> expected;
    for (const TrackCandidate& track : r.tracks) {
      const std::optional<FittedTrack> fit =
          fit_track(e, track, cfg.b_field_tesla);
      if (fit.has_value()) expected.push_back(*fit);
    }
    expect_same_fits(r.fits, expected);
    fitted += r.fits.size();
  }
  server.stop();
  EXPECT_GT(fitted, 0u);  // the fit comparison compared something
}

TEST_F(ServeTest, SkipFitServesOfflineTracksWithoutFits) {
  // Every occupancy reading escalates and the ladder tops out at
  // skip-fit, so each request runs at level 2 with the configured filter
  // cut: offline tracks, no fits. Level 2 takes two ladder updates, one
  // by the submitter after its push and one by the worker after its pop;
  // the first request may see only the worker's, so it is an unchecked
  // warm-up. Once it completes both have run and the ladder, which never
  // falls (low < 0), is pinned at max_level for every checked request.
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.degrade.high = 0.0;
  cfg.degrade.low = -1.0;
  cfg.degrade.ewma_alpha = 1.0;
  cfg.degrade.sustain = 1;
  cfg.degrade.max_level = 2;
  serve::ServeServer server(*replicas, cfg);
  server.start();
  const TrackingPipeline& replica = *replicas->acquire()->pipeline;
  server.submit(payloads_.front(), serve::Priority::kNormal).get();
  for (const Event& e : payloads_) {
    const serve::ServeResult r =
        server.submit(e, serve::Priority::kNormal).get();
    ASSERT_EQ(r.degrade_level, 2);
    EXPECT_TRUE(r.fit_skipped);
    EXPECT_TRUE(r.fits.empty());
    expect_same_tracks(r.tracks, replica.reconstruct(e).tracks);
  }
  server.stop();
}

TEST_F(ServeTest, HotReloadedReplicaServesColdReplicaResults) {
  // A checkpoint of the serving GNN weights, swapped in through the
  // reload path, must score and serve exactly what the cold-loaded
  // replica did.
  const fs::path dir = fresh_dir("reload_same");
  const std::string path = write_ckpt(dir, 1);
  auto replicas = make_replicas();
  const std::shared_ptr<const serve::ModelReplica> cold_replica =
      replicas->acquire();
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::ServeServer server(*replicas, cfg);
  server.start();
  std::vector<serve::ServeResult> cold;
  for (const Event& e : payloads_)
    cold.push_back(server.submit(e, serve::Priority::kNormal).get());
  ASSERT_TRUE(replicas->reload_from_checkpoint_file(path));
  const std::shared_ptr<const serve::ModelReplica> hot_replica =
      replicas->acquire();
  for (std::size_t i = 0; i < payloads_.size(); ++i) {
    const serve::ServeResult hot =
        server.submit(payloads_[i], serve::Priority::kNormal).get();
    EXPECT_EQ(cold[i].replica_generation, 1u);
    EXPECT_EQ(hot.replica_generation, 2u);
    expect_same_tracks(hot.tracks, cold[i].tracks);
    expect_same_fits(hot.fits, cold[i].fits);
    // Edge scores as well: tracks alone can hide a changed candidate
    // graph on a small event.
    const BinaryMetrics h =
        hot_replica->pipeline->reconstruct(payloads_[i]).edge_metrics;
    const BinaryMetrics c =
        cold_replica->pipeline->reconstruct(payloads_[i]).edge_metrics;
    EXPECT_EQ(h.true_positives, c.true_positives);
    EXPECT_EQ(h.false_positives, c.false_positives);
    EXPECT_EQ(h.true_negatives, c.true_negatives);
    EXPECT_EQ(h.false_negatives, c.false_negatives);
  }
  server.stop();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Replica reload: atomic swap, corrupt-checkpoint survival, fault site.

TEST_F(ServeTest, ReloadSwapsGenerationFromValidCheckpoint) {
  const fs::path dir = fresh_dir("reload_ok");
  const std::string path = write_ckpt(dir, 1);
  auto replicas = make_replicas();
  EXPECT_EQ(replicas->generation(), 1u);
  EXPECT_TRUE(replicas->reload_from_checkpoint_file(path));
  EXPECT_EQ(replicas->generation(), 2u);
  EXPECT_EQ(replicas->reloads_ok(), 1u);
  EXPECT_EQ(replicas->acquire()->source, path);
  fs::remove_all(dir);
}

TEST_F(ServeTest, CorruptCheckpointKeepsOldReplicaServing) {
  const fs::path dir = fresh_dir("reload_corrupt");
  const fs::path bad = dir / "ckpt-0000000007.ckpt";
  std::ofstream(bad.string(), std::ios::binary) << "not a checkpoint";
  auto replicas = make_replicas();
  const auto old = replicas->acquire();
  EXPECT_FALSE(replicas->reload_from_checkpoint_file(bad.string()));
  EXPECT_EQ(replicas->generation(), 1u);
  EXPECT_EQ(replicas->reloads_failed(), 1u);
  EXPECT_EQ(replicas->acquire().get(), old.get());  // same replica object
  // Directory scan: the torn "newest" file is skipped and the older valid
  // checkpoint swaps in — a torn write costs nothing but the scan.
  write_ckpt(dir, 3);
  EXPECT_TRUE(replicas->reload_from_checkpoint_dir(dir.string()));
  EXPECT_EQ(replicas->generation(), 2u);
  fs::remove_all(dir);
}

TEST_F(ServeTest, ReloadFaultSiteKeepsOldReplicaChaos) {
  const fs::path dir = fresh_dir("reload_fault");
  const std::string path = write_ckpt(dir, 1);
  fault::Registry::global().arm_from_string(
      "serve.checkpoint_reload:error:nth=1");
  auto replicas = make_replicas();
  EXPECT_FALSE(replicas->reload_from_checkpoint_file(path));
  EXPECT_EQ(replicas->generation(), 1u);
  EXPECT_EQ(replicas->reloads_failed(), 1u);
  // The fault was one-shot: the retried reload succeeds.
  EXPECT_TRUE(replicas->reload_from_checkpoint_file(path));
  EXPECT_EQ(replicas->generation(), 2u);
  fs::remove_all(dir);
}

TEST_F(ServeTest, ReloadWhileServingKeepsEveryRequestValid) {
  // tsan-stress: requests and reloads race; every future must resolve to
  // a result from *some* complete replica (generation 1..N), never crash.
  const fs::path dir = fresh_dir("reload_race");
  const std::string path = write_ckpt(dir, 1);
  auto replicas = make_replicas();
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 8;
  serve::ServeServer server(*replicas, cfg);
  server.start();
  std::atomic<bool> done{false};
  std::thread reloader([&] {
    while (!done.load()) {
      ASSERT_TRUE(replicas->reload_from_checkpoint_file(path));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::size_t served = 0;
  for (int i = 0; i < 24; ++i) {
    try {
      const serve::ServeResult r =
          server.submit(payloads_[static_cast<std::size_t>(i) %
                                  payloads_.size()],
                        serve::Priority::kNormal)
              .get();
      EXPECT_GE(r.replica_generation, 1u);
      ++served;
    } catch (const serve::OverloadError&) {
      // acceptable under racing load on a small queue
    }
  }
  done.store(true);
  reloader.join();
  server.stop();
  EXPECT_GT(served, 0u);
  EXPECT_GT(replicas->generation(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace trkx
