#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "io/csv.hpp"
#include "io/event_io.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace trkx {
namespace {

Event make_event(std::uint64_t seed) {
  DetectorConfig cfg;
  cfg.mean_particles = 15.0;
  Rng rng(seed);
  return generate_event(cfg, rng);
}

bool events_equal(const Event& a, const Event& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].x != b.hits[i].x || a.hits[i].y != b.hits[i].y ||
        a.hits[i].z != b.hits[i].z || a.hits[i].layer != b.hits[i].layer ||
        a.hits[i].particle != b.hits[i].particle)
      return false;
  }
  if (a.particles.size() != b.particles.size()) return false;
  for (std::size_t i = 0; i < a.particles.size(); ++i)
    if (a.particles[i].hits != b.particles[i].hits ||
        a.particles[i].pt != b.particles[i].pt)
      return false;
  if (a.graph.num_vertices() != b.graph.num_vertices()) return false;
  if (!(a.graph.edges() == b.graph.edges())) return false;
  return a.edge_labels == b.edge_labels &&
         a.node_features == b.node_features &&
         a.edge_features == b.edge_features;
}

TEST(EventIoTest, StreamRoundTrip) {
  Event e = make_event(1);
  std::stringstream ss;
  save_event(ss, e);
  Event back = load_event(ss);
  EXPECT_TRUE(events_equal(e, back));
}

TEST(EventIoTest, FileRoundTripMultipleEvents) {
  std::vector<Event> events{make_event(2), make_event(3), make_event(4)};
  const std::string path = "/tmp/trkx_io_test_events.bin";
  save_events(path, events);
  auto back = load_events(path);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(events_equal(events[i], back[i]));
  std::remove(path.c_str());
}

TEST(EventIoTest, BadMagicRejected) {
  std::stringstream ss;
  const std::uint32_t junk = 0xdeadbeef;
  ss.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  ss.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  EXPECT_THROW(load_event(ss), Error);
}

TEST(EventIoTest, TruncatedStreamRejected) {
  Event e = make_event(5);
  std::stringstream ss;
  save_event(ss, e);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(load_event(truncated), Error);
}

/// Two small hand-built events, independent of the generator, so pinned
/// bytes change only when the container format does.
std::vector<Event> fixed_events() {
  std::vector<Event> events(2);
  for (std::size_t k = 0; k < events.size(); ++k) {
    Event& e = events[k];
    const float s = static_cast<float>(k + 1);
    e.hits = {Hit{1.0f * s, 2.0f, 3.0f, 0, 0}, Hit{4.0f, 5.0f * s, 6.0f, 1, 0},
              Hit{7.0f, 8.0f, 9.0f * s, 2, Hit::kNoise}};
    TruthParticle p;
    p.pt = 1.5f * s;
    p.phi0 = 0.25f;
    p.eta = -0.5f;
    p.z0 = 2.0f;
    p.charge = -1;
    p.hits = {0, 1};
    e.particles = {p};
    e.graph = Graph(3, {Edge{0, 1}, Edge{1, 2}});
    e.edge_labels = {1, 0};
    e.node_features = Matrix(3, 2, 0.5f * s);
    e.edge_features = Matrix(2, 3, -0.25f * s);
  }
  return events;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

// Event files written by earlier builds must keep loading: the CRC-32 of a
// fixed two-event file pins every byte of the container layout.
TEST(EventIoTest, FileBytesArePinned) {
  const std::string path = "/tmp/trkx_io_test_pinned.bin";
  save_events(path, fixed_events());
  const std::string bytes = file_bytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 524u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x45ed2ce7u);
}

// A count field of 2^31-1 over a two-event file must fail as IoError from
// both loaders, before it sizes any allocation.
TEST(EventIoTest, LyingEventCountFailsTyped) {
  const std::string path = "/tmp/trkx_io_test_lying_count.bin";
  save_events(path, fixed_events());
  std::string bytes = file_bytes(path);
  const std::uint64_t lie = (1ull << 31) - 1;
  std::memcpy(&bytes[8], &lie, sizeof(lie));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  EXPECT_THROW(load_events(path), IoError);
  EXPECT_THROW(load_events_tolerant(path), IoError);
  std::remove(path.c_str());
}

TEST(EventIoTest, MissingFileThrows) {
  EXPECT_THROW(load_events("/tmp/definitely_missing_trkx_file.bin"), Error);
}

TEST(EventIoTest, CsvExportShape) {
  Event e = make_event(6);
  std::vector<float> scores(e.num_edges(), 0.25f);
  export_event_csv("/tmp/trkx_io_export", e, scores);
  std::ifstream hits("/tmp/trkx_io_export_hits.csv");
  std::string line;
  std::getline(hits, line);
  EXPECT_EQ(line, "hit_id,x,y,z,r,phi,eta,layer,particle");
  std::size_t hit_rows = 0;
  while (std::getline(hits, line)) ++hit_rows;
  EXPECT_EQ(hit_rows, e.hits.size());

  std::ifstream edges("/tmp/trkx_io_export_edges.csv");
  std::getline(edges, line);
  EXPECT_EQ(line, "edge_id,src,dst,label,score");
  std::size_t edge_rows = 0;
  while (std::getline(edges, line)) ++edge_rows;
  EXPECT_EQ(edge_rows, e.num_edges());
  std::remove("/tmp/trkx_io_export_hits.csv");
  std::remove("/tmp/trkx_io_export_edges.csv");
}

TEST(EventIoTest, CsvExportScoreSizeMismatchThrows) {
  Event e = make_event(7);
  EXPECT_THROW(export_event_csv("/tmp/trkx_io_bad", e, {0.5f}), Error);
}

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = "/tmp/trkx_io_test.csv";
  {
    CsvWriter csv(path, {"a", "b", "c"});
    csv.row(std::vector<std::string>{"x", "y", "z"});
    csv.row(std::vector<double>{1.5, 2.0, 3.25});
  }
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b,c");
  std::getline(is, line);
  EXPECT_EQ(line, "x,y,z");
  std::getline(is, line);
  EXPECT_EQ(line, "1.5,2,3.25");
  std::remove(path.c_str());
}

TEST(CsvTest, WrongColumnCountThrows) {
  const std::string path = "/tmp/trkx_io_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), Error);
  std::remove(path.c_str());
}

TEST(CsvTest, FormatDouble) {
  EXPECT_EQ(format_double(1.23456789, 3), "1.23");
  EXPECT_EQ(format_double(1000000.0), "1e+06");
}

}  // namespace
}  // namespace trkx
