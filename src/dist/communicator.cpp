#include "dist/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace trkx {

TimeoutBarrier::TimeoutBarrier(int parties, double timeout_seconds)
    : parties_(parties), timeout_seconds_(timeout_seconds) {
  TRKX_CHECK(parties >= 1);
}

void TimeoutBarrier::arrive_and_wait() {
  UniqueLock lock(mutex_);
  if (aborted_) throw CommTimeoutError(abort_reason_);
  const std::uint64_t my_generation = generation_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  const bool bounded = timeout_seconds_ > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(bounded ? timeout_seconds_ : 0.0));
  while (generation_ == my_generation && !aborted_) {
    if (!bounded) {
      cv_.wait(lock);
      continue;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        generation_ == my_generation && !aborted_) {
      // First rank to time out poisons the barrier so every other waiter
      // (now and later) releases too — all survivors see the same error
      // instead of a partial deadlock.
      aborted_ = true;
      std::ostringstream os;
      os << "collective timed out after " << timeout_seconds_
         << "s waiting for " << parties_ - arrived_
         << " of " << parties_ << " rank(s)";
      abort_reason_ = os.str();
      cv_.notify_all();
      break;
    }
  }
  // A barrier that completed before a peer aborted fails only the next one.
  if (generation_ == my_generation && aborted_)
    throw CommTimeoutError(abort_reason_);
}

void TimeoutBarrier::abort(const std::string& reason) {
  {
    UniqueLock lock(mutex_);
    if (!aborted_) {
      aborted_ = true;
      abort_reason_ = "collective aborted: " + reason;
    }
  }
  cv_.notify_all();
}

bool TimeoutBarrier::aborted() const {
  UniqueLock lock(mutex_);
  return aborted_;
}

int Communicator::size() const { return runtime_->num_ranks_; }

void Communicator::barrier() {
  if (runtime_->num_ranks_ > 1) runtime_->barrier_->arrive_and_wait();
}

void Communicator::all_reduce_sum(std::span<float> data) {
  fault::inject("dist.all_reduce", rank_);
  WallTimer timer;
  DistRuntime& rt = *runtime_;
  const int p = rt.num_ranks_;
  if (p > 1) {
    // Publish this rank's buffer.
    rt.contrib_[static_cast<std::size_t>(rank_)] = data.data();
    if (rank_ == 0) {
      rt.current_count_ = data.size();
      if (rt.reduce_buf_.size() < data.size()) rt.reduce_buf_.resize(data.size());
    }
    barrier();
    TRKX_CHECK_MSG(rt.current_count_ == data.size(),
                   "all_reduce_sum called with mismatched sizes across ranks");
    // Reduce-scatter: each rank owns a contiguous chunk and sums it across
    // all contributions in fixed rank order (bitwise deterministic).
    const std::size_t n = data.size();
    const std::size_t chunk = (n + static_cast<std::size_t>(p) - 1) /
                              static_cast<std::size_t>(p);
    const std::size_t begin =
        std::min(n, chunk * static_cast<std::size_t>(rank_));
    const std::size_t end = std::min(n, begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      float acc = 0.0f;
      for (int r = 0; r < p; ++r) acc += rt.contrib_[static_cast<std::size_t>(r)][i];
      rt.reduce_buf_[i] = acc;
    }
    barrier();
    // All-gather: copy the full reduced buffer back.
    std::memcpy(data.data(), rt.reduce_buf_.data(), n * sizeof(float));
    barrier();
  }
  ++stats_.all_reduce_calls;
  stats_.all_reduce_bytes += data.size() * sizeof(float);
  stats_.modeled_seconds +=
      rt.cost_model_.seconds(data.size() * sizeof(float), p);
  stats_.measured_seconds += timer.seconds();
}

double Communicator::all_reduce_scalar(double value) {
  float v = static_cast<float>(value);
  all_reduce_sum(std::span<float>(&v, 1));
  return static_cast<double>(v);
}

void Communicator::broadcast(std::span<float> data, int root) {
  DistRuntime& rt = *runtime_;
  if (rt.num_ranks_ <= 1) return;
  rt.contrib_[static_cast<std::size_t>(rank_)] = data.data();
  if (rank_ == 0) rt.current_count_ = data.size();
  barrier();
  TRKX_CHECK(rt.current_count_ == data.size());
  if (rank_ != root) {
    std::memcpy(data.data(), rt.contrib_[static_cast<std::size_t>(root)],
                data.size() * sizeof(float));
  }
  barrier();
}

std::vector<float> Communicator::all_gather(std::span<const float> local) {
  WallTimer timer;
  DistRuntime& rt = *runtime_;
  const int p = rt.num_ranks_;
  std::vector<float> out;
  if (p == 1) {
    out.assign(local.begin(), local.end());
  } else {
    rt.gather_ptrs_[static_cast<std::size_t>(rank_)] = local.data();
    rt.gather_sizes_[static_cast<std::size_t>(rank_)] = local.size();
    barrier();
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) total += rt.gather_sizes_[static_cast<std::size_t>(r)];
    out.reserve(total);
    for (int r = 0; r < p; ++r) {
      const auto* ptr = rt.gather_ptrs_[static_cast<std::size_t>(r)];
      out.insert(out.end(), ptr, ptr + rt.gather_sizes_[static_cast<std::size_t>(r)]);
    }
    barrier();  // contributions stay alive until everyone copied
  }
  ++stats_.all_reduce_calls;
  stats_.all_reduce_bytes += out.size() * sizeof(float);
  // Ring all-gather moves (P-1)/P of the total bytes with P-1 latency
  // steps: approximate with half an all-reduce of the same size.
  stats_.modeled_seconds +=
      0.5 * rt.cost_model_.seconds(out.size() * sizeof(float), p);
  stats_.measured_seconds += timer.seconds();
  return out;
}

DistRuntime::DistRuntime(int num_ranks, AllReduceCostModel cost_model,
                         double comm_timeout_seconds)
    : num_ranks_(num_ranks),
      cost_model_(cost_model),
      comm_timeout_seconds_(comm_timeout_seconds) {
  TRKX_CHECK(num_ranks >= 1);
  if (num_ranks > 1)
    barrier_ =
        std::make_unique<TimeoutBarrier>(num_ranks, comm_timeout_seconds_);
  contrib_.assign(static_cast<std::size_t>(num_ranks), nullptr);
  gather_ptrs_.assign(static_cast<std::size_t>(num_ranks), nullptr);
  gather_sizes_.assign(static_cast<std::size_t>(num_ranks), 0);
  rank_errors_.assign(static_cast<std::size_t>(num_ranks), nullptr);
  for (int r = 0; r < num_ranks; ++r)
    comms_.push_back(Communicator(this, r));
}

DistRuntime::~DistRuntime() = default;

void DistRuntime::run(const std::function<void(Communicator&)>& fn) {
  rank_errors_.assign(static_cast<std::size_t>(num_ranks_), nullptr);
  if (num_ranks_ == 1) {
    try {
      fn(comms_[0]);
    } catch (...) {
      rank_errors_[0] = std::current_exception();
      throw;
    }
    return;
  }
  // A previous failed run leaves the barrier poisoned; start fresh so a
  // runtime can host another attempt (e.g. resume after a rank-kill).
  if (barrier_->aborted())
    barrier_ =
        std::make_unique<TimeoutBarrier>(num_ranks_, comm_timeout_seconds_);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(comms_[static_cast<std::size_t>(r)]);
      } catch (const std::exception& e) {
        rank_errors_[static_cast<std::size_t>(r)] = std::current_exception();
        // Fail fast: without this, survivors sit in the barrier until the
        // timeout (or forever when none is configured).
        std::ostringstream os;
        os << "rank " << r << " failed: " << e.what();
        TRKX_WARN << "dist: " << os.str();
        barrier_->abort(os.str());
      } catch (...) {
        rank_errors_[static_cast<std::size_t>(r)] = std::current_exception();
        std::ostringstream os;
        os << "rank " << r << " failed with a non-standard exception";
        barrier_->abort(os.str());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the root cause: the rank that actually died (RankKilledError,
  // Error, ...) over the survivors' secondary CommTimeoutErrors.
  std::exception_ptr first;
  for (const std::exception_ptr& err : rank_errors_) {
    if (!err) continue;
    if (!first) first = err;
    try {
      std::rethrow_exception(err);
    } catch (const CommTimeoutError&) {
      // secondary failure; keep scanning for a root cause
    } catch (...) {
      first = err;
      break;
    }
  }
  if (first) std::rethrow_exception(first);
}

std::exception_ptr DistRuntime::rank_error(int rank) const {
  TRKX_CHECK(rank >= 0 && rank < num_ranks_);
  return rank_errors_[static_cast<std::size_t>(rank)];
}

CommStats DistRuntime::aggregate_stats() const {
  CommStats agg;
  for (const auto& c : comms_) {
    agg.all_reduce_calls = std::max(agg.all_reduce_calls,
                                    c.stats().all_reduce_calls);
    agg.all_reduce_bytes = std::max(agg.all_reduce_bytes,
                                    c.stats().all_reduce_bytes);
    agg.modeled_seconds = std::max(agg.modeled_seconds,
                                   c.stats().modeled_seconds);
    agg.measured_seconds = std::max(agg.measured_seconds,
                                    c.stats().measured_seconds);
  }
  return agg;
}

}  // namespace trkx
