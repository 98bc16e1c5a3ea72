#include "serve/service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/cancel.h"

#include "common/stopwatch.h"
#include "core/scan_shard.h"
#include "obs/json_writer.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "sim/profile_store.h"

namespace distinct {
namespace serve {

namespace {

/// Backoff hint attached to overloaded rejections. A constant is honest
/// here: admission pressure is dominated by whichever mega-name is in
/// flight, whose latency the server cannot predict per-request.
constexpr int64_t kRetryAfterMs = 50;

constexpr int64_t kMiB = 1024 * 1024;

}  // namespace

/// RAII release of admitted capacity — an inflight slot and/or a byte
/// reservation — so every early return on the query path gives it back.
class ServeService::Admission {
 public:
  Admission(ServeService* service, bool slot, int64_t reserved)
      : service_(service), slot_(slot), reserved_(reserved) {}
  ~Admission() { service_->Release(slot_, reserved_); }
  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

 private:
  ServeService* service_;
  bool slot_;
  int64_t reserved_;
};

ServeService::ServeService(const Distinct& engine, ServiceOptions options)
    : engine_(engine), options_(options) {
  options_.max_inflight = std::max(1, options_.max_inflight);
  budget_bytes_ = options_.memory_budget_mb > 0
                      ? options_.memory_budget_mb * kMiB
                      : 0;
  const int threads = std::max(
      1, options_.num_threads > 0 ? options_.num_threads
                                  : engine.config().num_threads);
  options_.num_threads = threads;
  pool_ = std::make_unique<ThreadPool>(threads);
  cache_version_ = engine.catalog_version();
  if (options_.progress != nullptr) {
    progress_ = options_.progress;
  }
  PublishTotals();
}

void ServeService::PublishTotals() {
  const auto& groups = engine_.name_groups();
  int64_t total_refs = 0;
  for (const auto& group : groups) {
    total_refs += static_cast<int64_t>(group.second.size());
  }
  progress_->groups_total.store(static_cast<int64_t>(groups.size()),
                                std::memory_order_relaxed);
  progress_->refs_total.store(total_refs, std::memory_order_relaxed);
}

std::chrono::steady_clock::time_point ServeService::DeadlineFor(
    const ServeRequest& request) const {
  int64_t ms = options_.default_deadline_ms;
  if (request.deadline_ms > 0) {
    // The request may only tighten the server's cap, never extend it.
    ms = ms > 0 ? std::min(ms, request.deadline_ms) : request.deadline_ms;
  }
  if (ms <= 0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

std::string ServeService::HandleLine(std::string_view line) {
  auto request = ParseRequest(line);
  if (!request.ok()) {
    return ErrorResponseJson(0, request.status());
  }
  return Handle(*request);
}

std::string ServeService::Handle(const ServeRequest& request) {
  Stopwatch watch;
  std::string response;
  switch (request.method) {
    case Method::kResolveName: {
      queries_.fetch_add(1, std::memory_order_relaxed);
      auto answer = ResolveShared(request.name, DeadlineFor(request));
      response = answer.ok()
                     ? AnswerResponseJson(request.id, Method::kResolveName,
                                          request.name, **answer)
                     : ErrorResponseJson(
                           request.id, answer.status(),
                           answer.status().code() ==
                                   StatusCode::kResourceExhausted
                               ? kRetryAfterMs
                               : -1);
      DISTINCT_HISTOGRAM_RECORD("serve.resolve_name_nanos",
                                watch.ElapsedNanos());
      break;
    }
    case Method::kClassifyRow: {
      queries_.fetch_add(1, std::memory_order_relaxed);
      const int64_t group = engine_.NameGroupOfRef(request.row);
      if (group < 0) {
        not_found_.fetch_add(1, std::memory_order_relaxed);
        response = ErrorResponseJson(
            request.id, NotFoundError("serve: no reference row " +
                                      std::to_string(request.row)));
      } else {
        const std::string& name =
            engine_.name_groups()[static_cast<size_t>(group)].first;
        auto answer = ResolveShared(name, DeadlineFor(request));
        if (!answer.ok()) {
          response = ErrorResponseJson(
              request.id, answer.status(),
              answer.status().code() == StatusCode::kResourceExhausted
                  ? kRetryAfterMs
                  : -1);
        } else {
          const std::vector<int32_t>& refs = (*answer)->refs;
          const size_t pos = static_cast<size_t>(
              std::find(refs.begin(), refs.end(), request.row) -
              refs.begin());
          const int cluster =
              pos < refs.size() ? (*answer)->clustering.assignment[pos] : -1;
          response = AnswerResponseJson(request.id, Method::kClassifyRow,
                                        name, **answer, request.row,
                                        cluster);
        }
      }
      DISTINCT_HISTOGRAM_RECORD("serve.classify_row_nanos",
                                watch.ElapsedNanos());
      break;
    }
    case Method::kStats:
      response = ObjectResponseJson(request.id, "stats", StatsJson());
      DISTINCT_HISTOGRAM_RECORD("serve.stats_nanos", watch.ElapsedNanos());
      break;
    case Method::kHealth:
      response = ObjectResponseJson(request.id, "health", HealthJson());
      DISTINCT_HISTOGRAM_RECORD("serve.health_nanos", watch.ElapsedNanos());
      break;
  }
  return response;
}

StatusOr<ResolveAnswer> ServeService::ResolveNameAt(
    const std::string& name,
    std::chrono::steady_clock::time_point deadline) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  auto answer = ResolveShared(name, deadline);
  if (!answer.ok()) {
    return answer.status();
  }
  return **answer;
}

StatusOr<std::shared_ptr<const ResolveAnswer>> ServeService::ResolveShared(
    const std::string& name,
    std::chrono::steady_clock::time_point deadline) {
  // Inflight slots bound concurrency for every query, cached or not: a
  // stampede of cache hits is cheap, but the slot check is what keeps a
  // stampede of distinct cold names from all reaching the kernel at once.
  int64_t inflight = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (inflight >= options_.max_inflight) {
      rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
      return ResourceExhaustedError(
          "serve: " + std::to_string(inflight) +
          " queries in flight (max " +
          std::to_string(options_.max_inflight) + ")");
    }
    if (inflight_.compare_exchange_weak(inflight, inflight + 1,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  Admission slot(this, /*slot=*/true, /*reserved=*/0);

  auto refs = engine_.RefsForName(name);
  if (!refs.ok()) {
    return refs.status();
  }
  if (refs->empty()) {
    not_found_.fetch_add(1, std::memory_order_relaxed);
    return NotFoundError("serve: no references named '" + name + "'");
  }

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_version_ != engine_.catalog_version()) {
      // The engine applied a delta since these answers were computed.
      cache_.clear();
      cache_fifo_.clear();
      cache_version_ = engine_.catalog_version();
      PublishTotals();
    }
    if (auto cached = cache_.find(name); cached != cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      answered_.fetch_add(1, std::memory_order_relaxed);
      return cached->second;
    }
    auto it = flights_.find(name);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_.emplace(name, flight);
      leader = true;
    }
  }

  if (!leader) {
    // Coalesce: wait for the leader's answer under our own deadline — a
    // follower never outlives its budget just because the leader has a
    // laxer one.
    batched_.fetch_add(1, std::memory_order_relaxed);
    DISTINCT_COUNTER_ADD("serve.batched", 1);
    std::unique_lock<std::mutex> lock(flight->mutex);
    if (!flight->cv.wait_until(lock, deadline,
                               [&] { return flight->done; })) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      return DeadlineExceededError(
          "serve: deadline expired waiting on coalesced query '" + name +
          "'");
    }
    if (!flight->status.ok()) {
      if (flight->status.code() == StatusCode::kDeadlineExceeded) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      }
      return flight->status;
    }
    answered_.fetch_add(1, std::memory_order_relaxed);
    return flight->answer;
  }

  // Leader: pay memory admission, compute, publish to flight + cache.
  StatusOr<std::shared_ptr<const ResolveAnswer>> result =
      [&]() -> StatusOr<std::shared_ptr<const ResolveAnswer>> {
    int64_t reserved = 0;
    DISTINCT_RETURN_IF_ERROR(Admit(
        EstimatedGroupMatrixBytes(static_cast<int64_t>(refs->size())),
        &reserved));
    Admission reservation(this, /*slot=*/false, reserved);
    return ComputeAnswer(*refs, deadline);
  }();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    flights_.erase(name);
    if (result.ok()) {
      CacheInsert(name, *result);
    }
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->done = true;
    flight->status = result.ok() ? Status::Ok() : result.status();
    if (result.ok()) {
      flight->answer = *result;
    }
  }
  flight->cv.notify_all();

  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
    return result.status();
  }
  answered_.fetch_add(1, std::memory_order_relaxed);
  progress_->groups_done.fetch_add(1, std::memory_order_relaxed);
  progress_->refs_done.fetch_add(
      static_cast<int64_t>((*result)->refs.size()),
      std::memory_order_relaxed);
  return *result;
}

StatusOr<std::shared_ptr<const ResolveAnswer>> ServeService::ComputeAnswer(
    const std::vector<int32_t>& refs,
    std::chrono::steady_clock::time_point deadline) {
  // A token is only materialized for bounded queries: an unbounded one
  // passes a null token and the fill runs the exact branch-free-checked
  // batch path.
  std::optional<CancelToken> token;
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    token.emplace(deadline);
    if (token->CheckAbort()) {
      return DeadlineExceededError(
          "serve: deadline expired before compute");
    }
  }

  // The exact batch sequence (Distinct::ResolveRefs on the engine's warm
  // state): memo hits return precisely what misses would compute, so the
  // answer is bit-identical to a cold batch run.
  const ProfileStore store = ProfileStore::Build(
      engine_.propagation_engine(), engine_.paths(),
      engine_.config().propagation, refs, pool_.get(),
      ProfileStore::kMinParallelRefs, engine_.memo(), engine_.workspaces());
  PairKernelOptions kernel;
  kernel.cancel = token.has_value() ? &*token : nullptr;
  auto matrices =
      ComputePairMatrices(store, engine_.model(), pool_.get(), kernel);
  if (token.has_value() && token->aborted()) {
    // The fill stopped at a tile/row boundary; the matrices are partial
    // and are dropped here, never clustered and never cached.
    return DeadlineExceededError("serve: deadline expired in pair kernel");
  }
  auto answer = std::make_shared<ResolveAnswer>();
  answer->refs = refs;
  answer->clustering = ClusterReferences(matrices.first, matrices.second,
                                         engine_.cluster_options());
  return std::shared_ptr<const ResolveAnswer>(std::move(answer));
}

Status ServeService::Admit(int64_t estimate_bytes, int64_t* reserved_out) {
  *reserved_out = 0;
  if (budget_bytes_ <= 0) {
    return Status::Ok();
  }
  int64_t reserved = reserved_bytes_.load(std::memory_order_relaxed);
  for (;;) {
    const int64_t standing =
        obs::MemoryTracker::Global().TrackedTotalBytes();
    const int64_t would_be = standing + reserved + estimate_bytes;
    if (would_be > budget_bytes_) {
      rejected_memory_.fetch_add(1, std::memory_order_relaxed);
      DISTINCT_COUNTER_ADD("serve.rejected", 1);
      return ResourceExhaustedError(
          "serve: query estimate " + std::to_string(estimate_bytes) +
          " bytes over budget (" + std::to_string(standing) +
          " standing + " + std::to_string(reserved) + " reserved of " +
          std::to_string(budget_bytes_) + ")");
    }
    if (reserved_bytes_.compare_exchange_weak(reserved,
                                              reserved + estimate_bytes,
                                              std::memory_order_relaxed)) {
      *reserved_out = estimate_bytes;
      int64_t peak = admission_peak_bytes_.load(std::memory_order_relaxed);
      while (peak < would_be && !admission_peak_bytes_.compare_exchange_weak(
                                    peak, would_be,
                                    std::memory_order_relaxed)) {
      }
      return Status::Ok();
    }
  }
}

void ServeService::Release(bool slot, int64_t reserved_bytes) {
  if (reserved_bytes > 0) {
    reserved_bytes_.fetch_sub(reserved_bytes, std::memory_order_relaxed);
  }
  if (slot) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ServeService::CacheInsert(const std::string& name,
                               std::shared_ptr<const ResolveAnswer> answer) {
  // Caller holds mutex_.
  if (options_.result_cache_entries == 0) {
    return;
  }
  if (cache_.emplace(name, std::move(answer)).second) {
    cache_fifo_.push_back(name);
    while (cache_fifo_.size() > options_.result_cache_entries) {
      cache_.erase(cache_fifo_.front());
      cache_fifo_.pop_front();
    }
  }
}

ServiceStats ServeService::stats() const {
  ServiceStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.answered = answered_.load(std::memory_order_relaxed);
  stats.batched = batched_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.rejected_inflight =
      rejected_inflight_.load(std::memory_order_relaxed);
  stats.rejected_memory = rejected_memory_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.not_found = not_found_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  stats.reserved_bytes = reserved_bytes_.load(std::memory_order_relaxed);
  stats.admission_peak_bytes =
      admission_peak_bytes_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.cache_entries = static_cast<int64_t>(cache_.size());
  }
  return stats;
}

std::string ServeService::StatsJson() const {
  const ServiceStats stats = this->stats();
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("queries").Value(stats.queries);
  json.Key("answered").Value(stats.answered);
  json.Key("batched").Value(stats.batched);
  json.Key("cache_hits").Value(stats.cache_hits);
  json.Key("cache_entries").Value(stats.cache_entries);
  json.Key("rejected_inflight").Value(stats.rejected_inflight);
  json.Key("rejected_memory").Value(stats.rejected_memory);
  json.Key("deadline_exceeded").Value(stats.deadline_exceeded);
  json.Key("not_found").Value(stats.not_found);
  json.Key("inflight").Value(stats.inflight);
  json.Key("reserved_bytes").Value(stats.reserved_bytes);
  json.Key("admission_peak_bytes").Value(stats.admission_peak_bytes);
  json.Key("tracked_bytes")
      .Value(obs::MemoryTracker::Global().TrackedTotalBytes());
  json.Key("budget_bytes").Value(budget_bytes_);
  json.EndObject();
  return json.str();
}

std::string ServeService::HealthJson() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("status").Value("serving");
  json.Key("protocol").Value(kProtocolVersion);
  json.Key("names")
      .Value(static_cast<int64_t>(engine_.name_groups().size()));
  json.Key("catalog_version").Value(engine_.catalog_version());
  json.Key("threads").Value(options_.num_threads);
  json.Key("max_inflight").Value(options_.max_inflight);
  json.EndObject();
  return json.str();
}

}  // namespace serve
}  // namespace distinct
