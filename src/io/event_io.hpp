#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "detector/generator.hpp"

namespace trkx {

/// Binary (de)serialization for events and datasets so generated data can
/// be cached between runs (the paper's datasets live on disk too).
///
/// An event file is {u32 magic, u32 version 2, u64 count}, then `count`
/// records, each a util/codec.hpp frame {u64 length, u32 crc32, event
/// blob}. The CRC detects corruption before a partial Event escapes, and
/// the length lets the tolerant loader skip a bad record and keep going.
/// save_event/load_event write and read one bare blob, the whole stream.
/// Failures throw IoError whose message carries the path and byte offset
/// of the bad read, before a lying count or length sizes an allocation.
void save_event(std::ostream& os, const Event& event);
Event load_event(std::istream& is);

void save_events(const std::string& path, const std::vector<Event>& events);
std::vector<Event> load_events(const std::string& path);

/// Bounded exponential backoff for retrying a corrupt/unreadable event
/// record before quarantining it.
struct IoRetryPolicy {
  std::size_t max_attempts = 3;     ///< total tries per record (>= 1)
  double initial_backoff_ms = 1.0;  ///< sleep before the 2nd attempt
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 50.0;
};

/// What a tolerant load produced: the events that survived, plus the
/// quarantine bookkeeping (also mirrored into the obs counters
/// `io.retries` and `events.quarantined`).
struct TolerantLoadResult {
  std::vector<Event> events;
  std::size_t quarantined = 0;  ///< records dropped after all retries
  std::size_t retries = 0;      ///< re-read attempts that were needed
  std::vector<std::string> quarantine_log;  ///< one message per dropped record
};

/// Degraded-mode dataset load: each event record is retried with bounded
/// exponential backoff and quarantined on persistent failure while the
/// rest of the file keeps loading (records are independently framed;
/// bytes past the last counted record are quarantined as one more). The
/// fault site `io.read_event` fires once per read attempt. A missing file
/// or a corrupt header still throws IoError — there is nothing to
/// degrade to.
TolerantLoadResult load_events_tolerant(const std::string& path,
                                        const IoRetryPolicy& policy = {});

/// Export one event as two analysis-friendly CSVs:
///   <prefix>_hits.csv  — hit_id, x, y, z, r, phi, eta, layer, particle
///   <prefix>_edges.csv — edge_id, src, dst, label, score (empty = -1)
/// `scores` is optional (pass {} to omit); useful for plotting GNN output
/// against truth in external tools.
void export_event_csv(const std::string& prefix, const Event& event,
                      const std::vector<float>& scores = {});

}  // namespace trkx
