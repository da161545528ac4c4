// SweepDriver: deterministic fan-out of independent simulation replicas
// across worker threads (DESIGN.md §17).
//
// The replica isolation contract: every cell of a sweep runs against a
// ReplicaContext that OWNS its identity and an Rng (a split() sub-stream
// of the sweep seed, keyed by cell index). A cell builds its own world —
// a control::Testbed owns its Simulator — so replicas share nothing
// mutable: not a clock, not a random stream, not a metric sink. That is
// exactly why running them on worker threads cannot change their
// results. run() starts min(jobs, cells) threads that claim the next
// cell index from one atomic counter; each result lands in a mailbox
// slot owned by that cell alone, and the slots merge in cell-index order
// once the threads have joined. A replica that throws does not vanish in
// a worker: its exception is parked in the same mailbox and rethrown
// from run(), lowest cell index first, after every other replica
// finished.
//
// Consequence (machine-checked by tests/determinism_test.cpp and the m2
// bench): the merged result vector — and any artifact serialized from
// it — is byte-identical at jobs=1 and jobs=N. jobs=1 starts no thread;
// it runs the cells inline on the calling thread, so the serial path
// stays trivially debuggable.
//
// This is the coarse-grained half of the roadmap's parallel-engine
// item. The fine-grained conservative PDES (per-shard event loops
// exchanging timestamped packets) is deferred.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace xmem::sim::par {

/// Everything a replica may mutate, owned exclusively by that replica.
/// Cells build their own world (e.g. a control::Testbed, which owns its
/// own Simulator) and get their identity and random stream from here
/// instead of inventing per-cell seed arithmetic.
struct ReplicaContext {
  ReplicaContext(std::size_t cell_index, std::uint64_t sweep_seed)
      : index(cell_index),
        rng(Rng(sweep_seed).split(cell_index)),
        stream_seed(Rng(sweep_seed).stream_seed(cell_index)) {}
  ReplicaContext(const ReplicaContext&) = delete;
  ReplicaContext& operator=(const ReplicaContext&) = delete;

  /// Position in the sweep; also the merge position of the result.
  std::size_t index;
  /// Private sub-stream of the sweep seed (Rng::split(index)).
  Rng rng;
  /// The seed rng was built from — for models that take a seed value
  /// rather than an Rng& (fault profiles, jitter configs).
  std::uint64_t stream_seed;
};

struct SweepConfig {
  /// Worker threads: 0 resolves via resolve_jobs() (XMEM_JOBS knob,
  /// then host cores). 1 runs strictly inline with no thread.
  std::size_t jobs = 0;
  /// Master seed; cell i draws from Rng(seed).split(i).
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/// Host logical core count; std::thread::hardware_concurrency() clamped
/// to >= 1 (the standard allows it to return 0 when unknown).
[[nodiscard]] std::size_t host_cores();

/// Resolve a worker count: an explicit request wins; otherwise the
/// XMEM_JOBS environment knob (read through the sim::env() startup
/// snapshot, like every other env input); otherwise host_cores().
/// Always >= 1.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested = 0);

template <typename Result>
class SweepDriver {
 public:
  using Cell = std::function<Result(ReplicaContext&)>;

  explicit SweepDriver(SweepConfig config = {})
      : config_(config), jobs_(resolve_jobs(config.jobs)) {}

  /// Resolved worker count (what run() will actually use).
  [[nodiscard]] std::size_t jobs() const { return jobs_; }
  [[nodiscard]] std::uint64_t seed() const { return config_.seed; }

  /// Run every cell, merge results in cell-index order. Rethrows the
  /// lowest-indexed replica exception after all replicas finished.
  std::vector<Result> run(const std::vector<Cell>& cells) {
    // One mailbox slot per cell: a worker writes only its own slot, so
    // slots need no lock; the threads' join orders every write before
    // the merge below reads them.
    struct Slot {
      std::optional<Result> result;
      std::exception_ptr error;
    };
    std::vector<Slot> mailbox(cells.size());

    auto run_cell = [&](std::size_t i) {
      ReplicaContext ctx(i, config_.seed);
      try {
        mailbox[i].result.emplace(cells[i](ctx));
      } catch (...) {
        mailbox[i].error = std::current_exception();
      }
    };

    if (jobs_ <= 1) {
      for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
    } else {
      const std::size_t threads = std::min(jobs_, cells.size());
      std::atomic<std::size_t> next{0};
      std::vector<std::jthread> workers;
      workers.reserve(threads);
      for (std::size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&] {
          for (std::size_t i = next++; i < cells.size(); i = next++) {
            run_cell(i);
          }
        });
      }
    }  // the jthreads join here

    for (Slot& slot : mailbox) {
      if (slot.error) std::rethrow_exception(slot.error);
    }
    std::vector<Result> merged;
    merged.reserve(mailbox.size());
    for (Slot& slot : mailbox) merged.push_back(std::move(*slot.result));
    return merged;
  }

 private:
  SweepConfig config_;
  std::size_t jobs_;
};

/// Canonical merged-artifact form for sweeps whose cells each produce a
/// JSON value: the cell payloads joined in index order. Byte-identical
/// across jobs counts because the inputs are.
[[nodiscard]] std::string merged_json(
    const std::vector<std::string>& cell_json);

}  // namespace xmem::sim::par
