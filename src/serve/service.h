// Query execution for the resident disambiguation service, independent of
// any socket: the server (serve/server.h), the stress driver (bench_serve)
// and the tests all drive this layer directly.
//
// A ServeService wraps one trained Distinct engine and propagates on the
// engine's warm state: its SubtreeCache (suffix distributions computed for
// one name are hits for every later name that reaches the same junction
// tuples) and its WorkspacePool (scratch slabs recycled across queries).
// The service keeps only its own kernel ThreadPool, sized by
// ServiceOptions::num_threads. Reference rows map to their name through
// the engine's name index too, so everything a query reads follows the
// engine across an ApplyDelta; answers cached before a delta are dropped,
// and the progress totals republished, once the engine's catalog_version()
// moves. On top of the warm state it layers the three serving mechanisms:
//
//  - Request batching (single-flight): concurrent queries for the same
//    name coalesce onto one kernel invocation — the first caller computes,
//    the rest wait on the flight and share the leader's answer (and the
//    leader's error: a coalesced follower inherits a deadline_exceeded).
//  - Deadlines: each query gets a CancelToken with its steady-clock
//    deadline; the pair-matrix fill abandons work at the next tile/row
//    boundary and the query reports deadline_exceeded. The half-filled
//    matrices are discarded, never cached.
//  - Admission control: a query over n references is priced at
//    EstimatedGroupMatrixBytes(n) — the same formula the sharded scan
//    budgets with. It is admitted only when MemoryTracker standing bytes
//    plus the estimates already reserved by in-flight queries plus its own
//    estimate fit in the memory budget (memory_budget_mb); otherwise it is
//    rejected as `overloaded` with a retry_after_ms hint. Reservations are
//    deliberately conservative: an in-flight query is counted both by its
//    reservation and (as its matrices materialize) by the tracker, so the
//    bound holds with margin rather than by luck.
//
// Answers are bit-identical to the batch path: the executor is
// ResolveGroup (core/distinct.h), the one resolve sequence that
// Distinct::ResolveRefs and the bulk scan run too (ProfileStore::Build →
// ComputePairMatrices → ClusterReferences), here with spans off on the
// engine's memo — and memo hits return what misses would compute, so
// warmth never changes a result.

#ifndef DISTINCT_SERVE_SERVICE_H_
#define DISTINCT_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/distinct.h"
#include "obs/heartbeat.h"
#include "serve/protocol.h"

namespace distinct {
namespace serve {

struct ServiceOptions {
  /// Kernel threads shared by every in-flight query (propagation fan-out +
  /// matrix tiles, via ParallelForShared). 0 = engine config num_threads.
  int num_threads = 0;
  /// Queries allowed past admission at once (resolve/classify only —
  /// stats/health always answer). Excess is rejected as overloaded.
  int max_inflight = 64;
  /// Default per-query deadline in ms when the request carries none;
  /// 0 = no deadline. A request's own deadline_ms is honoured up to this
  /// value when set (a client cannot outlive the server's cap).
  int64_t default_deadline_ms = 0;
  /// Memory budget in MiB for admission (the CLI's --scan-memory-mb, as
  /// for the sharded scan); 0 = admit on slots alone.
  int64_t memory_budget_mb = 0;
  /// Completed answers kept for exact re-serving, FIFO-evicted. 0 off.
  size_t result_cache_entries = 4096;
  /// Publish liveness counters here instead of the service's own state
  /// (the CLI points this at the ProgressState its HeartbeatReporter
  /// samples). Must outlive the service. Null = internal state, still
  /// reachable via progress().
  obs::ProgressState* progress = nullptr;
};

/// Plain-value counters snapshot; also serialized by StatsJson().
struct ServiceStats {
  int64_t queries = 0;            // resolve/classify requests seen
  int64_t answered = 0;           // successful answers (incl. cache/batch)
  int64_t batched = 0;            // coalesced onto another query's flight
  int64_t cache_hits = 0;
  int64_t rejected_inflight = 0;  // admission: no slot
  int64_t rejected_memory = 0;    // admission: over memory budget
  int64_t deadline_exceeded = 0;
  int64_t not_found = 0;
  int64_t inflight = 0;           // currently admitted
  int64_t reserved_bytes = 0;     // live admission reservations
  /// Max over admissions of tracked bytes + reservations at admit time:
  /// the bench asserts this never exceeded the budget.
  int64_t admission_peak_bytes = 0;
  int64_t cache_entries = 0;
};

class ServeService {
 public:
  /// `engine` must outlive the service. Serving and ApplyDelta may
  /// alternate but must not overlap: no query may be in flight while the
  /// engine applies a delta. Queries after a delta answer over the
  /// appended database.
  ServeService(const Distinct& engine, ServiceOptions options);

  /// Parses and executes one request line; always returns one response
  /// line (no trailing newline) — errors included.
  std::string HandleLine(std::string_view line);

  /// Executes a parsed request against `now`'s admission/deadline state.
  std::string Handle(const ServeRequest& request);

  /// The resolve executor with an explicit deadline, for deterministic
  /// tests (`time_point::min()` = already expired,
  /// `time_point::max()` = none). Covers admission, cache, and
  /// single-flight exactly like Handle().
  StatusOr<ResolveAnswer> ResolveNameAt(
      const std::string& name, std::chrono::steady_clock::time_point deadline);

  ServiceStats stats() const;
  std::string StatsJson() const;
  std::string HealthJson() const;

  /// Liveness counters for a HeartbeatReporter: groups_done = answers
  /// this service computed, refs_done = their references. Cache hits and
  /// coalesced followers are answered without a computation and are not
  /// counted (stats().answered counts them).
  obs::ProgressState* progress() { return progress_; }

  const ServiceOptions& options() const { return options_; }

 private:
  /// One in-flight computation of a name, shared by coalesced queries.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::shared_ptr<const ResolveAnswer> answer;  // null on error
  };

  /// RAII admission: slot + byte reservation, released on destruction.
  class Admission;

  StatusOr<std::shared_ptr<const ResolveAnswer>> ResolveShared(
      const std::string& name,
      std::chrono::steady_clock::time_point deadline);
  StatusOr<std::shared_ptr<const ResolveAnswer>> ComputeAnswer(
      const std::vector<int32_t>& refs,
      std::chrono::steady_clock::time_point deadline);
  Status Admit(int64_t estimate_bytes, int64_t* reserved_out);
  void Release(bool slot, int64_t reserved_bytes);
  void CacheInsert(const std::string& name,
                   std::shared_ptr<const ResolveAnswer> answer);
  std::chrono::steady_clock::time_point DeadlineFor(
      const ServeRequest& request) const;
  /// Stores the engine's group and reference counts as the progress
  /// totals: at construction and again once catalog_version() moves.
  void PublishTotals();

  const Distinct& engine_;
  ServiceOptions options_;
  int64_t budget_bytes_ = 0;  // 0 = unbounded
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_;  // flights + cache
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  std::unordered_map<std::string, std::shared_ptr<const ResolveAnswer>>
      cache_;
  std::deque<std::string> cache_fifo_;
  /// engine_.catalog_version() the cached answers were computed under.
  int64_t cache_version_ = 0;

  std::atomic<int64_t> inflight_{0};
  std::atomic<int64_t> reserved_bytes_{0};
  std::atomic<int64_t> admission_peak_bytes_{0};

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> answered_{0};
  std::atomic<int64_t> batched_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> rejected_inflight_{0};
  std::atomic<int64_t> rejected_memory_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
  std::atomic<int64_t> not_found_{0};

  obs::ProgressState owned_progress_;
  obs::ProgressState* progress_ = &owned_progress_;  // ctor honours options
};

}  // namespace serve
}  // namespace distinct

#endif  // DISTINCT_SERVE_SERVICE_H_
