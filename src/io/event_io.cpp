#include "io/event_io.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "obs/metrics.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace trkx {

namespace {

constexpr std::uint32_t kEventMagic = 0x54524b58;  // "XKRT": event blob
constexpr std::uint32_t kEventVersion = 1;

constexpr std::uint32_t kFileMagic = 0x43524b58;  // "XKRC": event file
constexpr std::uint32_t kFileVersion = 2;

// Hits and edges are stored as their structs, which have no padding.
static_assert(sizeof(Hit) == 5 * 4 && sizeof(Edge) == 2 * 4);
constexpr std::size_t kParticleBytes = 5 * 4 + 8;  // scalars + hit count

void put_matrix(ByteWriter& w, const Matrix& m) {
  w.put<std::uint64_t>(m.rows());
  w.put<std::uint64_t>(m.cols());
  w.put_array(m.data(), m.size());
}

Matrix get_matrix(ByteReader& r) {
  const auto rows = r.get<std::uint64_t>();
  const auto cols = r.get<std::uint64_t>();
  if (rows != 0 && cols > r.remaining() / sizeof(float) / rows)
    r.fail("matrix shape exceeds the bytes that remain");
  Matrix m(rows, cols);
  r.get_array(m.data(), m.size());
  return m;
}

void put_event(ByteWriter& w, const Event& event) {
  w.put(kEventMagic);
  w.put(kEventVersion);
  w.put_vector(event.hits);
  w.put<std::uint64_t>(event.particles.size());
  for (const TruthParticle& p : event.particles) {
    for (float v : {p.pt, p.phi0, p.eta, p.z0}) w.put(v);
    w.put<std::int32_t>(p.charge);
    w.put_vector(p.hits);
  }
  w.put<std::uint64_t>(event.graph.num_vertices());
  w.put_vector(event.graph.edges());
  w.put_vector(event.edge_labels);
  put_matrix(w, event.node_features);
  put_matrix(w, event.edge_features);
}

/// Decode one event blob, the rest of `r`, checking the invariants an
/// Event relies on, so corrupt bytes fail here as IoError, not later.
Event get_event(ByteReader& r) {
  r.get_header(kEventMagic, kEventVersion, "event");
  Event event;
  event.hits = r.get_vector<Hit>();
  event.particles.resize(r.get_count(kParticleBytes));
  for (TruthParticle& p : event.particles) {
    for (float* v : {&p.pt, &p.phi0, &p.eta, &p.z0}) *v = r.get<float>();
    p.charge = r.get<std::int32_t>();
    p.hits = r.get_vector<std::uint32_t>();
  }
  const auto num_vertices = r.get<std::uint64_t>();
  if (num_vertices != event.hits.size())
    r.fail("graph vertex count disagrees with hit count");
  std::vector<Edge> edges = r.get_vector<Edge>();
  for (const Edge& e : edges)
    if (e.src >= num_vertices || e.dst >= num_vertices)
      r.fail("edge endpoint out of range");
  event.graph = Graph(num_vertices, std::move(edges));
  event.edge_labels = r.get_vector<char>();
  if (event.edge_labels.size() != event.graph.num_edges())
    r.fail("edge label count disagrees with graph");
  event.node_features = get_matrix(r);
  event.edge_features = get_matrix(r);
  r.expect_end();
  return event;
}

void quarantine(TolerantLoadResult& result, const std::string& what) {
  ++result.quarantined;
  metrics().counter("events.quarantined").add(1);
  TRKX_WARN << "io: " << what;
  result.quarantine_log.push_back(what);
}

}  // namespace

void save_event(std::ostream& os, const Event& event) {
  ByteWriter w;
  put_event(w, event);
  w.write_to(os, CodecError::kIo, "event stream");
}

Event load_event(std::istream& is) {
  ByteReader r(is, CodecError::kIo, "event stream");
  return get_event(r);
}

void save_events(const std::string& path, const std::vector<Event>& events) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) throw IoError("cannot open " + path + " for writing");
  ByteWriter header;
  header.put(kFileMagic);
  header.put(kFileVersion);
  header.put<std::uint64_t>(events.size());
  header.write_to(os, CodecError::kIo, path);
  for (const Event& e : events) {
    ByteWriter blob, record;
    put_event(blob, e);
    record.put_frame(blob.bytes);
    record.write_to(os, CodecError::kIo, path);
  }
}

std::vector<Event> load_events(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ByteReader in(is, CodecError::kIo, path);
  in.get_header(kFileMagic, kFileVersion, "event file");
  // A record takes at least a frame header: a lying count fails here.
  const std::uint64_t count = in.get_count(kFrameHeaderBytes);
  std::vector<Event> events;
  for (std::uint64_t i = 0; i < count; ++i) {
    ByteReader record = in.get_frame();  // CRC verified before decoding
    events.push_back(get_event(record));
  }
  in.expect_end();
  return events;
}

TolerantLoadResult load_events_tolerant(const std::string& path,
                                        const IoRetryPolicy& policy) {
  TRKX_CHECK(policy.max_attempts >= 1);
  std::ifstream is(path, std::ios::binary);
  ByteReader in(is, CodecError::kIo, path);
  in.get_header(kFileMagic, kFileVersion, "event file");
  const std::uint64_t count = in.get_count(kFrameHeaderBytes);

  TolerantLoadResult result;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t record_off = in.offset();
    double backoff_ms = policy.initial_backoff_ms;
    bool loaded = false;
    std::string error;
    for (std::size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
      try {
        // Rewind to the record on every attempt: transient faults
        // (injected or a flaky filesystem) deserve the retry; genuine
        // on-disk corruption fails identically and is quarantined below.
        in.seek(record_off);
        fault::inject("io.read_event");
        ByteReader record = in.get_frame();
        result.events.push_back(get_event(record));
        loaded = true;
        break;
      } catch (const Error& e) {
        error = e.what();
        if (attempt == policy.max_attempts) break;
        ++result.retries;
        metrics().counter("io.retries").add(1);
        TRKX_WARN << "io: retrying event record " << i << " of " << path
                  << " (attempt " << attempt + 1 << "/"
                  << policy.max_attempts << "): " << e.what();
        if (backoff_ms > 0.0)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms));
        backoff_ms = std::min(backoff_ms * policy.backoff_multiplier,
                              policy.max_backoff_ms);
      }
    }
    if (loaded) continue;

    quarantine(result, "quarantined event record " + std::to_string(i) +
                           " of " + path + " at byte " +
                           std::to_string(record_off) + ": " + error);
    // Hop over the bad record using its length field so the remaining
    // records still load.
    try {
      in.seek(record_off);
      in.skip_frame();
    } catch (const Error&) {
      const std::uint64_t rest = count - i - 1;
      result.quarantined += rest;
      metrics().counter("events.quarantined").add(rest);
      TRKX_WARN << "io: record framing of " << path
                << " unrecoverable after byte " << record_off << "; "
                << rest << " further event(s) quarantined";
      return result;
    }
  }
  // Bytes past the last counted record: the count field itself is wrong.
  if (in.remaining() != 0)
    quarantine(result, "quarantined " + std::to_string(in.remaining()) +
                           " bytes of " + path + " past its " +
                           std::to_string(count) + " counted event records");
  return result;
}

void export_event_csv(const std::string& prefix, const Event& event,
                      const std::vector<float>& scores) {
  TRKX_CHECK(scores.empty() || scores.size() == event.num_edges());
  {
    std::ofstream os(prefix + "_hits.csv");
    TRKX_CHECK_MSG(os.good(), "cannot open " << prefix << "_hits.csv");
    os << "hit_id,x,y,z,r,phi,eta,layer,particle\n";
    for (std::size_t i = 0; i < event.hits.size(); ++i) {
      const Hit& h = event.hits[i];
      os << i << ',' << h.x << ',' << h.y << ',' << h.z << ',' << h.r()
         << ',' << h.phi() << ',' << h.eta() << ',' << h.layer << ','
         << h.particle << '\n';
    }
  }
  {
    std::ofstream os(prefix + "_edges.csv");
    TRKX_CHECK_MSG(os.good(), "cannot open " << prefix << "_edges.csv");
    os << "edge_id,src,dst,label,score\n";
    for (std::size_t e = 0; e < event.num_edges(); ++e) {
      os << e << ',' << event.graph.edge(e).src << ','
         << event.graph.edge(e).dst << ','
         << static_cast<int>(event.edge_labels[e]) << ','
         << (scores.empty() ? -1.0f : scores[e]) << '\n';
    }
  }
}

}  // namespace trkx
