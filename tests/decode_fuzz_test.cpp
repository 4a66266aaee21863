// Seeded mutation fuzzer over every binary decoder: the checkpoint reader,
// both event-file loaders and the pipeline model loader.
//
// The seed corpus is what the repo's own writers produce: one checkpoint,
// one file of 3 events and one pipeline model file. From a fixed seed each
// file gets a few hundred mutants:
//   - single bit flips;
//   - a truncation at every frame boundary;
//   - lying length and count fields;
//   - splices of two corpus files;
//   - bit flips inside a frame whose CRC is then recomputed, so the inner
//     decoders (parameter stores, Adam state, event blobs) see the damage.
// Every mutant must be rejected with IoError or CheckpointError — never
// another exception, never a crash — and the target object must be left
// unchanged. A resealed mutant may decode (it can be a valid file), but a
// rejected one must still leave its target unchanged. For
// load_events_tolerant, rejected means quarantined, not thrown; only a
// damaged file header throws, since there is nothing to degrade to.
//
// Runs under the `fuzz` ctest label; ci_matrix.sh's asan-ubsan leg runs it
// too. A seed that finds a crash becomes a named case below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "io/event_io.hpp"
#include "nn/optimizer.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/pipeline.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

constexpr std::uint64_t kSeed = 0x7472'6b78'6675'7a7aull;  // "trkxfuzz"
constexpr std::size_t kBitFlips = 160;
constexpr std::size_t kResealedFlips = 120;
constexpr std::size_t kSplices = 24;
constexpr std::size_t kEnvelopeHeaderBytes = 8 + kFrameHeaderBytes;

struct Mutant {
  std::string name;
  std::string bytes;
  bool resealed = false;  ///< CRC recomputed: may legitimately decode
};

/// Where a file's frames sit: [header offset, payload offset, payload end).
struct FrameSpan {
  std::size_t header = 0;
  std::size_t payload = 0;
  std::size_t end = 0;
};

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void write_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(&bytes[at], &v, sizeof(v));
}

/// Recompute the CRC of `frame` after its payload was edited.
void reseal(std::string& bytes, const FrameSpan& frame) {
  const std::uint32_t crc =
      crc32(bytes.data() + frame.payload, frame.end - frame.payload);
  std::memcpy(&bytes[frame.header + 8], &crc, sizeof(crc));
}

/// Frames of a file made of one envelope (checkpoint, pipeline model).
std::vector<FrameSpan> envelope_frames(const std::string& bytes) {
  return {{8, kEnvelopeHeaderBytes, bytes.size()}};
}

/// Frames of an event file: a 16-byte header, then one frame per record.
std::vector<FrameSpan> event_frames(const std::string& bytes) {
  std::vector<FrameSpan> frames;
  std::size_t at = 16;
  while (at < bytes.size()) {
    const std::size_t payload = at + kFrameHeaderBytes;
    const std::size_t end = payload + read_u64(bytes, at);
    frames.push_back({at, payload, end});
    at = end;
  }
  return frames;
}

/// The mutants of `original`. `fields` are the offsets of its u64 length
/// and count fields; `others` are the files it is spliced with.
std::vector<Mutant> mutate(const std::string& original,
                           const std::vector<FrameSpan>& frames,
                           const std::vector<std::size_t>& fields,
                           const std::vector<const std::string*>& others,
                           Rng& rng) {
  std::vector<Mutant> out;
  auto add = [&](std::string name, std::string bytes, bool resealed) {
    if (bytes != original)
      out.push_back({std::move(name), std::move(bytes), resealed});
  };
  for (std::size_t i = 0; i < kBitFlips; ++i) {
    const std::size_t at = rng.uniform_index(original.size());
    const int bit = static_cast<int>(rng.uniform_index(8));
    std::string bytes = original;
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
    add("flip@" + std::to_string(at) + "." + std::to_string(bit),
        std::move(bytes), false);
  }
  std::vector<std::size_t> cuts = {0, 4, 8};
  for (const FrameSpan& f : frames)
    for (std::size_t at : {f.header, f.header + 8, f.payload, f.end - 1})
      cuts.push_back(at);
  for (std::size_t at : cuts)
    if (at < original.size())
      add("truncate@" + std::to_string(at), original.substr(0, at), false);
  for (std::size_t at : fields) {
    // A field inside a frame's payload is resealed, so that the inner
    // decoder, not the CRC, has to catch the lie.
    const FrameSpan* inside = nullptr;
    for (const FrameSpan& f : frames)
      if (at >= f.payload && at < f.end) inside = &f;
    const std::uint64_t truth = read_u64(original, at);
    const std::uint64_t rest = original.size() - at - 8;
    for (std::uint64_t lie :
         {std::uint64_t{0}, std::uint64_t{1}, truth - 1, truth + 1, rest,
          rest + 1, std::uint64_t{1} << 30, (std::uint64_t{1} << 31) - 1,
          std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
      std::string bytes = original;
      write_u64(bytes, at, lie);
      if (inside != nullptr) reseal(bytes, *inside);
      add("lie@" + std::to_string(at) + "=" + std::to_string(lie),
          std::move(bytes), inside != nullptr);
    }
  }
  for (const std::string* other : others) {
    for (std::size_t i = 0; i < kSplices; ++i) {
      const std::size_t cut = rng.uniform_index(original.size());
      const std::size_t from = rng.uniform_index(other->size());
      add("splice@" + std::to_string(cut) + "+" + std::to_string(from),
          original.substr(0, cut) + other->substr(from), false);
    }
  }
  for (std::size_t i = 0; i < kResealedFlips; ++i) {
    const FrameSpan& f = frames[rng.uniform_index(frames.size())];
    const std::size_t at = f.payload + rng.uniform_index(f.end - f.payload);
    const int bit = static_cast<int>(rng.uniform_index(8));
    std::string bytes = original;
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
    reseal(bytes, f);
    add("resealed-flip@" + std::to_string(at) + "." + std::to_string(bit),
        std::move(bytes), true);
  }
  return out;
}

/// Run `decode` on a mutant: it must succeed or throw `Typed`. Returns
/// whether it was rejected; any other exception fails the test.
template <typename Typed>
bool rejected(const Mutant& m, const std::function<void()>& decode) {
  try {
    decode();
    return false;
  } catch (const Typed&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << m.name << ": untyped " << typeid(e).name() << ": "
                  << e.what();
    return true;
  }
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

ParameterStore make_store() {
  ParameterStore store;
  Parameter& w = store.create("w", 3, 4);
  Parameter& b = store.create("b", 1, 4);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.value.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  for (std::size_t i = 0; i < b.size(); ++i)
    b.value.data()[i] = 0.5f - 0.125f * static_cast<float>(i);
  return store;
}

std::string checkpoint_corpus() {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  TrainCheckpointState state;
  state.next_epoch = 3;
  state.best_weights = {1.0f, -2.0f};
  state.epochs.push_back({0.5, 1, 2, 3, 4, 0.25});
  return serialize_checkpoint(state, store, opt);
}

std::vector<Event> corpus_events() {
  DetectorConfig detector;
  detector.mean_particles = 3.0;
  std::vector<Event> events;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Rng rng = Rng::stream(kSeed, 1, i);
    events.push_back(generate_event(detector, rng));
  }
  return events;
}

PipelineConfig model_config(std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.embedding.hidden_dim = 8;
  cfg.filter.hidden_dim = 8;
  cfg.gnn.hidden_dim = 4;
  cfg.gnn.num_layers = 1;
  cfg.gnn.mlp_hidden = 1;
  cfg.embedding.seed = seed;
  cfg.filter.seed = seed + 1;
  cfg.gnn_train.seed = seed + 2;
  return cfg;
}

std::unique_ptr<TrackingPipeline> make_pipeline(std::uint64_t seed) {
  const DetectorConfig detector;
  return std::make_unique<TrackingPipeline>(detector.node_feature_dim,
                                            detector.edge_feature_dim,
                                            model_config(seed));
}

std::string model_bytes(const TrackingPipeline& pipeline) {
  std::ostringstream os;
  pipeline.save(os);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

bool same_event(const Event& a, const Event& b) {
  std::ostringstream sa, sb;
  save_event(sa, a);
  save_event(sb, b);
  return sa.str() == sb.str();
}

class DecodeFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);  // quarantine warnings by the hundred
    checkpoint_ = checkpoint_corpus();
    events_ = corpus_events();
    events_path_ = ::testing::TempDir() + "trkx_fuzz_corpus_events.bin";
    save_events(events_path_, events_);
    event_file_ = file_bytes(events_path_);
    model_ = model_bytes(*make_pipeline(10));
  }
  static void TearDownTestSuite() {
    std::remove(events_path_.c_str());
    set_log_level(LogLevel::kInfo);
  }

  /// Every checkpoint mutant is a CheckpointError that leaves the store
  /// and the optimizer as they were.
  static void expect_checkpoint_rejected(const Mutant& m) {
    ParameterStore store = make_store();
    Adam opt(store, AdamOptions{});
    const std::vector<float> values = store.flatten_values();
    ByteWriter opt_before;
    opt.save_state(opt_before);
    const bool bad = rejected<CheckpointError>(
        m, [&] { (void)deserialize_checkpoint(m.bytes, store, opt); });
    EXPECT_TRUE(bad || m.resealed) << m.name << ": accepted";
    if (!bad) return;
    ByteWriter opt_after;
    opt.save_state(opt_after);
    EXPECT_EQ(store.flatten_values(), values) << m.name;
    EXPECT_EQ(opt_after.bytes, opt_before.bytes) << m.name;
  }

  /// Every model mutant is a CheckpointError that leaves the pipeline as
  /// it was.
  static void expect_model_rejected(const Mutant& m) {
    auto target = make_pipeline(20);
    const std::string before = model_bytes(*target);
    const bool bad = rejected<CheckpointError>(m, [&] {
      std::istringstream is(m.bytes);
      target->load(is);
    });
    EXPECT_TRUE(bad || m.resealed) << m.name << ": accepted";
    if (bad) {
      EXPECT_EQ(model_bytes(*target), before) << m.name;
    }
  }

  /// Every event-file mutant fails load_events with IoError. The tolerant
  /// loader quarantines the damage, throwing only for a damaged header,
  /// and every event it does return is one the corpus holds.
  static void expect_events_rejected(const Mutant& m, const std::string& path) {
    write_file(path, m.bytes);
    const bool bad =
        rejected<IoError>(m, [&] { (void)load_events(path); });
    EXPECT_TRUE(bad || m.resealed) << m.name << ": accepted";

    const bool header_ok =
        m.bytes.size() >= 16 && m.bytes.compare(0, 8, event_file_, 0, 8) == 0 &&
        read_u64(m.bytes, 8) <= (m.bytes.size() - 16) / kFrameHeaderBytes;
    IoRetryPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff_ms = 0.0;
    TolerantLoadResult result;
    const bool thrown = rejected<IoError>(
        m, [&] { result = load_events_tolerant(path, policy); });
    EXPECT_EQ(thrown, !header_ok) << m.name;
    if (thrown) return;
    if (bad) {
      EXPECT_GE(result.quarantined, 1u) << m.name;
    } else {
      EXPECT_EQ(result.quarantined, 0u) << m.name;
    }
    if (m.resealed) return;  // a resealed record may decode to new values
    for (const Event& e : result.events) {
      bool known = false;
      for (const Event& c : events_) known = known || same_event(e, c);
      EXPECT_TRUE(known) << m.name << ": a damaged event escaped";
    }
  }

  static std::string checkpoint_;
  static std::vector<Event> events_;
  static std::string events_path_;
  static std::string event_file_;
  static std::string model_;
};

std::string DecodeFuzzTest::checkpoint_;
std::vector<Event> DecodeFuzzTest::events_;
std::string DecodeFuzzTest::events_path_;
std::string DecodeFuzzTest::event_file_;
std::string DecodeFuzzTest::model_;

TEST_F(DecodeFuzzTest, CorpusDecodes) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  EXPECT_EQ(deserialize_checkpoint(checkpoint_, store, opt).next_epoch, 3u);
  ASSERT_EQ(load_events(events_path_).size(), events_.size());
  auto pipeline = make_pipeline(20);
  std::istringstream is(model_);
  pipeline->load(is);
  EXPECT_EQ(model_bytes(*pipeline), model_);
}

TEST_F(DecodeFuzzTest, CheckpointMutantsAreRejected) {
  Rng rng = Rng::stream(kSeed, 2);
  // The envelope length, then the payload's best_weights and epoch counts.
  const std::vector<std::size_t> fields = {8, 20 + 73, 20 + 73 + 8 + 8};
  const std::vector<Mutant> mutants =
      mutate(checkpoint_, envelope_frames(checkpoint_), fields,
             {&checkpoint_, &event_file_, &model_}, rng);
  ASSERT_GT(mutants.size(), 300u);
  for (const Mutant& m : mutants) expect_checkpoint_rejected(m);
}

TEST_F(DecodeFuzzTest, EventFileMutantsAreRejected) {
  Rng rng = Rng::stream(kSeed, 3);
  const std::vector<FrameSpan> frames = event_frames(event_file_);
  ASSERT_EQ(frames.size(), events_.size());
  std::vector<std::size_t> fields = {8};  // the event count
  for (const FrameSpan& f : frames) {
    fields.push_back(f.header);       // record length
    fields.push_back(f.payload + 8);  // hit count
  }
  const std::vector<Mutant> mutants = mutate(
      event_file_, frames, fields, {&event_file_, &checkpoint_, &model_}, rng);
  ASSERT_GT(mutants.size(), 300u);
  const std::string path = ::testing::TempDir() + "trkx_fuzz_mutant.bin";
  for (const Mutant& m : mutants) expect_events_rejected(m, path);
  std::remove(path.c_str());
}

TEST_F(DecodeFuzzTest, ModelMutantsAreRejected) {
  Rng rng = Rng::stream(kSeed, 4);
  // The envelope length, then the embedding store's parameter count and
  // its first name length.
  const std::vector<std::size_t> fields = {8, 20 + 12, 20 + 20};
  const std::vector<Mutant> mutants = mutate(
      model_, envelope_frames(model_), fields, {&model_, &checkpoint_}, rng);
  ASSERT_GT(mutants.size(), 300u);
  for (const Mutant& m : mutants) expect_model_rejected(m);
}

}  // namespace
}  // namespace trkx
