#include "pipeline/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace trkx {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x50434b54;  // "TKCP"
constexpr std::uint32_t kCheckpointVersion = 1;

// Epoch summaries are stored as their struct: six 8-byte fields.
static_assert(sizeof(TrainCheckpointState::EpochSummary) == 6 * 8);

/// splitmix64 finalizer — the mixing step behind Rng, reused to fold
/// config fields into the fingerprint.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

/// IoError for `what` on `path` with errno's text, after removing the
/// temp file `discard` (if any) so a failed write leaves nothing behind.
[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path,
                              const char* discard = nullptr) {
  const int saved = errno;
  if (discard != nullptr) ::unlink(discard);
  throw IoError(what + " " + path + ": " + std::strerror(saved));
}

/// RAII fd so error paths cannot leak descriptors.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

TrainCheckpointState get_state(ByteReader& r) {
  TrainCheckpointState state;
  state.fingerprint = r.get<std::uint64_t>();
  state.next_epoch = r.get<std::uint64_t>();
  state.global_step = r.get<std::uint64_t>();
  state.rng_state = r.get<std::uint64_t>();
  state.rng_have_spare = r.get<std::uint8_t>() != 0;
  state.rng_spare = r.get<double>();
  state.early_best = r.get<double>();
  state.early_bad_epochs = r.get<std::uint64_t>();
  state.best_f1 = r.get<double>();
  state.best_epoch = r.get<std::uint64_t>();
  state.best_weights = r.get_vector<float>();
  state.epochs = r.get_vector<TrainCheckpointState::EpochSummary>();
  return state;
}

/// Decode into `store` and `opt`, which change only once every byte has
/// been verified and decoded.
TrainCheckpointState decode_checkpoint(ByteReader file, ParameterStore& store,
                                       Adam& opt) {
  ByteReader r =
      file.get_envelope(kCheckpointMagic, kCheckpointVersion, "checkpoint");
  TrainCheckpointState state = get_state(r);
  const std::vector<float> values = store.read_values(r);
  opt.load_state(r);
  r.expect_end();
  store.unflatten_values(values);
  return state;
}

}  // namespace

std::string serialize_checkpoint(const TrainCheckpointState& state,
                                 const ParameterStore& store,
                                 const Adam& opt) {
  ByteWriter payload;
  payload.put(state.fingerprint);
  payload.put(state.next_epoch);
  payload.put(state.global_step);
  payload.put(state.rng_state);
  payload.put<std::uint8_t>(state.rng_have_spare ? 1 : 0);
  payload.put(state.rng_spare);
  payload.put(state.early_best);
  payload.put(state.early_bad_epochs);
  payload.put(state.best_f1);
  payload.put(state.best_epoch);
  payload.put_vector(state.best_weights);
  payload.put_vector(state.epochs);
  store.save(payload);
  opt.save_state(payload);
  return ByteWriter::envelope(kCheckpointMagic, kCheckpointVersion,
                              payload.bytes)
      .bytes;
}

TrainCheckpointState deserialize_checkpoint(const std::string& bytes,
                                            ParameterStore& store,
                                            Adam& opt) {
  return decode_checkpoint(
      ByteReader(bytes, CodecError::kCheckpoint, "checkpoint"), store, opt);
}

TrainCheckpointState read_checkpoint(const std::string& path,
                                     ParameterStore& store, Adam& opt) {
  std::ifstream is(path, std::ios::binary);
  return decode_checkpoint(ByteReader(is, CodecError::kCheckpoint, path),
                           store, opt);
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  namespace fs = std::filesystem;
  const fs::path dest(path);
  const fs::path dir = dest.parent_path().empty() ? fs::path(".")
                                                  : dest.parent_path();
  // Unique temp name per (process, call): concurrent writers — e.g. every
  // surviving rank flushing an emergency checkpoint — never collide, and
  // whichever rename lands last wins atomically.
  static std::atomic<std::uint64_t> sequence{0};
  std::ostringstream tmp_name;
  tmp_name << dest.filename().string() << ".tmp." << ::getpid() << "."
           << sequence.fetch_add(1, std::memory_order_relaxed);
  // NOLINT(trkx-div-guard): std::filesystem path join, not a division.
  const fs::path tmp = dir / tmp_name.str();

  {
    Fd fd;
    fd.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd.fd < 0) throw_errno("cannot create", tmp.string());
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ::ssize_t n =
          ::write(fd.fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write failed on", tmp.string(), tmp.c_str());
      }
      written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd.fd) != 0)
      throw_errno("fsync failed on", tmp.string(), tmp.c_str());
  }
  if (::rename(tmp.c_str(), dest.c_str()) != 0)
    throw_errno("rename failed for", dest.string(), tmp.c_str());
  // Persist the directory entry too: without this the rename itself can
  // be lost on power failure.
  Fd dirfd;
  dirfd.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd.fd >= 0) (void)::fsync(dirfd.fd);
}

void write_checkpoint_bytes(const std::string& path,
                            const std::string& bytes) {
  fault::inject("checkpoint.write");
  WallTimer timer;
  atomic_write_file(path, bytes);
  metrics().histogram("checkpoint.write_ns").observe(timer.seconds() * 1e9);
  metrics().counter("checkpoint.writes").add(1);
}

void write_checkpoint(const std::string& path,
                      const TrainCheckpointState& state,
                      const ParameterStore& store, const Adam& opt) {
  write_checkpoint_bytes(path, serialize_checkpoint(state, store, opt));
}

std::string checkpoint_path(const std::string& dir,
                            std::uint64_t next_epoch) {
  std::ostringstream os;
  os << dir << "/ckpt-";
  os.width(6);
  os.fill('0');
  os << next_epoch;
  os << ".ckpt";
  return os.str();
}

std::string latest_checkpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return "";
  std::string best_path;
  std::uint64_t best_epoch = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.rfind("ckpt-", 0) != 0 ||
        name.substr(name.size() - 5) != ".ckpt")
      continue;
    // Validate the envelope before trusting the filename: a torn write
    // must fall back to the previous good checkpoint, not block resume.
    std::uint64_t epoch = 0;
    try {
      std::ifstream is(entry.path(), std::ios::binary);
      ByteReader file(is, CodecError::kCheckpoint, entry.path().string());
      ByteReader payload =
          file.get_envelope(kCheckpointMagic, kCheckpointVersion, "checkpoint");
      epoch = get_state(payload).next_epoch;
    } catch (const Error& e) {
      TRKX_WARN << "checkpoint: skipping invalid " << entry.path().string()
                << ": " << e.what();
      continue;
    }
    if (best_path.empty() || epoch > best_epoch) {
      best_epoch = epoch;
      best_path = entry.path().string();
    }
  }
  return best_path;
}

std::uint64_t checkpoint_fingerprint(const GnnTrainConfig& config,
                                     std::optional<SamplerKind> sampler,
                                     int world_size) {
  std::uint64_t h = 0x74726b78636b7074ull;  // "trkxckpt"
  h = mix(h, config.seed);
  h = mix(h, config.batch_size);
  h = mix(h, config.bulk_k);
  h = mix(h, config.shadow.depth);
  h = mix(h, config.shadow.fanout);
  // The former literal-SpGEMM sampler switch's "off", still mixed in so
  // checkpoints written while it existed resume.
  h = mix(h, 0);
  if (sampler.has_value()) {
    h = mix(h, static_cast<std::uint64_t>(*sampler));
  } else {
    h = mix(h, 0x66756c6cull);  // "full": no sampler
    // The former edge-count limit's "unlimited" value, still mixed in so
    // full-graph checkpoints written before the limit was removed resume.
    h = mix(h, std::numeric_limits<std::size_t>::max());
    h = mix(h, config.memory_budget_bytes);
  }
  h = mix(h, static_cast<std::uint64_t>(world_size));
  h = mix_double(h, static_cast<double>(config.lr));
  h = mix_double(h, static_cast<double>(config.pos_weight));
  h = mix_double(h, static_cast<double>(config.grad_clip));
  h = mix(h, config.early_stop_patience);
  h = mix(h, config.keep_best_weights ? 1 : 0);
  h = mix(h, config.evaluate_every_epoch ? 1 : 0);
  h = mix(h, static_cast<std::uint64_t>(config.sync));
  return h;
}

}  // namespace trkx
