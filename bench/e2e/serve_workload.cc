// serve_1m: the catalog-scale engine behind an in-process ServeServer,
// driven over loopback TCP by an open-loop and then a closed-loop load
// generator: one process, one sender and one receiver thread, kConnections
// persistent connections.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/io_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/scan_shard.h"
#include "obs/json_writer.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "workloads.h"

namespace distinct {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 4;
/// Open-loop arrival rate (Poisson). Below the closed-loop capacity of the
/// catalog-scale server, so the latency it measures is service plus the
/// queueing a random arrival process causes, not an overload backlog.
constexpr double kOpenLoopQps = 200.0;
/// The open loop runs as kWindows equal windows, each drained before the
/// next starts. Server CPU per answered request is taken per window and
/// the median is reported: contention from other tenants of the host that
/// spoils one window leaves the run's number alone (README, "Why CPU
/// time").
constexpr int kWindows = 8;
/// Query names: Zipf over the names with this many references, so popular
/// names repeat (result cache, single-flight) while the tail keeps reaching
/// the kernel.
constexpr double kNameZipf = 0.9;
constexpr int64_t kMinNameRefs = 2;
constexpr int64_t kMaxNameRefs = 100;
/// Share of responses byte-compared against the batch engine afterwards.
constexpr double kCompareShare = 0.02;
/// A response missing for this long counts the request as failed.
constexpr double kDrainTimeoutSeconds = 30.0;

/// Zipf ranks for successive queries. Each query's uniform variate is the
/// next point of the golden-ratio sequence from a seeded start rather than
/// an independent draw, so every stretch of the run asks for the mix of
/// popular and rare ranks the distribution gives. The largest names cost
/// far more than the typical one, and with independent draws the few of
/// them a run happens to ask for decide its cost.
class ZipfRanks {
 public:
  ZipfRanks(size_t n, double s, double start) : u_(start) {
    double total = 0.0;
    for (size_t rank = 0; rank < n; ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  size_t Next() {
    u_ += 0.6180339887498949;
    u_ -= std::floor(u_);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u_);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;  // cumulative probability up to each rank
  double u_;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// CPU seconds the calling thread has used.
double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

std::string RequestLine(int64_t id, const std::string& name) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("id").Value(id);
  json.Key("method").Value("resolve_name");
  json.Key("name").Value(name);
  json.EndObject();
  return json.str() + "\n";
}

/// One request on the wire: which name, when it was due, when it left.
struct Pending {
  int64_t id = 0;
  size_t name = 0;
  Clock::time_point due;
  Clock::time_point sent;
  bool compare = false;  // keep the response for the byte comparison
};

/// One persistent client connection. The server answers one connection's
/// requests in order, so responses match the FIFO of pending requests.
struct Connection {
  int fd = -1;
  std::string received;  // bytes not yet split into lines
  std::mutex mutex;      // guards pending: the sender pushes, the receiver pops
  std::deque<Pending> pending;
};

/// What one load phase observed.
struct PhaseResult {
  std::vector<double> latency_ms;  // due -> answered
  std::vector<double> queue_ms;    // due -> sent
  std::vector<double> service_ms;  // sent -> answered
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t errors = 0;   // error responses and requests never answered
  double seconds = 0.0;  // first due time -> last answer
  int64_t backlog_end = 0;  // requests unanswered when the last one was sent
  double generator_cpu_s = 0.0;  // CPU of the sender and receiver threads
  std::vector<size_t> asked;  // name of every request, in answer order
  std::vector<std::pair<Pending, std::string>> kept;

  /// Adds a later phase's observations to this one's.
  void Absorb(PhaseResult&& part) {
    const auto append = [](auto& into, auto& from) {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    };
    append(latency_ms, part.latency_ms);
    append(queue_ms, part.queue_ms);
    append(service_ms, part.service_ms);
    append(asked, part.asked);
    append(kept, part.kept);
    sent += part.sent;
    answered += part.answered;
    errors += part.errors;
    seconds += part.seconds;
    backlog_end = std::max(backlog_end, part.backlog_end);
    generator_cpu_s += part.generator_cpu_s;
  }
};

class LoadGenerator {
 public:
  LoadGenerator(const std::vector<std::string>& names, uint64_t seed)
      : names_(names),
        rng_(seed),
        ranks_(names.size(), kNameZipf, rng_.UniformDouble()) {}

  ~LoadGenerator() {
    for (Connection& connection : connections_) {
      if (connection.fd >= 0) {
        ::close(connection.fd);
      }
    }
  }

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  Status Connect(uint16_t port) {
    for (Connection& connection : connections_) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        return InternalError("load generator: socket() failed");
      }
      connection.fd = fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        return UnavailableError("load generator: connect() failed");
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return Status::Ok();
  }

  /// Poisson arrivals at `qps` for `seconds`, spread round-robin over the
  /// connections by the sender thread; the calling thread receives. Every
  /// latency is timed from the request's due time, so a stalled server
  /// also charges the requests queued behind the stall.
  PhaseResult OpenLoop(double qps, double seconds) {
    std::vector<double> due_offsets;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng_.UniformDouble()) / qps;
      if (t >= seconds) {
        break;
      }
      due_offsets.push_back(t);
    }
    PhaseResult result;
    const int64_t total = static_cast<int64_t>(due_offsets.size());
    std::atomic<int64_t> answered{0};
    std::atomic<int64_t> send_failures{0};
    double sender_cpu_s = 0.0;
    const double receiver_cpu_start = ThreadCpuSeconds();
    const Clock::time_point start = Clock::now();
    std::thread sender([&] {
      const double cpu_start = ThreadCpuSeconds();
      for (size_t k = 0; k < due_offsets.size(); ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_offsets[k]));
        std::this_thread::sleep_until(due);
        if (!Send(connections_[k % kConnections], due)) {
          send_failures.fetch_add(1);
        }
      }
      result.backlog_end =
          total - answered.load() - send_failures.load();
      sender_cpu_s = ThreadCpuSeconds() - cpu_start;
    });
    Receive(result, [&] {
      answered.store(result.answered + result.errors);
      return result.answered + result.errors + send_failures.load() >= total;
    });
    sender.join();
    result.sent = total;
    result.errors += send_failures.load();
    result.seconds = Ms(Clock::now() - start) / 1e3;
    result.generator_cpu_s =
        sender_cpu_s + ThreadCpuSeconds() - receiver_cpu_start;
    return result;
  }

  /// Closed loop: one request outstanding per connection, the next sent as
  /// soon as the previous answer arrives, until `seconds` have passed.
  PhaseResult ClosedLoop(double seconds) {
    PhaseResult result;
    const double cpu_start = ThreadCpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    int64_t outstanding = 0;
    for (Connection& connection : connections_) {
      outstanding += Send(connection, Clock::now()) ? 1 : 0;
    }
    result.sent = outstanding;
    Receive(result, [&] { return result.answered + result.errors >= result.sent; },
            [&](Connection& connection) {
              if (Clock::now() < end && Send(connection, Clock::now())) {
                ++result.sent;
              }
            });
    result.seconds = Ms(Clock::now() - start) / 1e3;
    result.generator_cpu_s = ThreadCpuSeconds() - cpu_start;
    return result;
  }

 private:
  /// Draws the next name, queues the request on `connection` and writes
  /// it. False when the write failed (the request never left).
  bool Send(Connection& connection, Clock::time_point due) {
    Pending pending;
    pending.id = next_id_++;
    pending.name = ranks_.Next();
    pending.due = due;
    pending.compare = rng_.Bernoulli(kCompareShare);
    pending.sent = Clock::now();
    const std::string line = RequestLine(pending.id, names_[pending.name]);
    {
      std::lock_guard<std::mutex> lock(connection.mutex);
      connection.pending.push_back(pending);
    }
    if (!WriteFdAll(connection.fd, line, "load generator").ok()) {
      std::lock_guard<std::mutex> lock(connection.mutex);
      connection.pending.pop_back();
      return false;
    }
    return true;
  }

  /// Reads responses from every connection until `done()` or until no
  /// response arrived for kDrainTimeoutSeconds; `on_answer` runs after each
  /// response (the closed loop sends its next request there).
  template <typename Done, typename OnAnswer>
  void Receive(PhaseResult& result, Done done, OnAnswer on_answer) {
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      fds[c].fd = connections_[c].fd;
      fds[c].events = POLLIN;
    }
    Clock::time_point last_progress = Clock::now();
    char buffer[1 << 16];
    while (!done()) {
      if (Ms(Clock::now() - last_progress) > kDrainTimeoutSeconds * 1e3) {
        break;
      }
      const int ready = ::poll(fds, kConnections, 50);
      if (ready <= 0) {
        continue;
      }
      for (int c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        Connection& connection = connections_[c];
        auto bytes = ReadFdSome(connection.fd, buffer, sizeof(buffer),
                                "load generator");
        if (!bytes.ok() || *bytes == 0) {
          fds[c].fd = -1;  // closed: its pending requests stay unanswered
          continue;
        }
        connection.received.append(buffer, *bytes);
        size_t newline;
        while ((newline = connection.received.find('\n')) !=
               std::string::npos) {
          const Clock::time_point now = Clock::now();
          std::string line = connection.received.substr(0, newline);
          connection.received.erase(0, newline + 1);
          Pending pending;
          {
            std::lock_guard<std::mutex> lock(connection.mutex);
            if (connection.pending.empty()) {
              ++result.errors;  // an answer nobody asked for
              continue;
            }
            pending = connection.pending.front();
            connection.pending.pop_front();
          }
          last_progress = now;
          result.asked.push_back(pending.name);
          if (line.find("\"ok\":true") == std::string::npos) {
            ++result.errors;
          } else {
            ++result.answered;
            result.latency_ms.push_back(Ms(now - pending.due));
            result.queue_ms.push_back(Ms(pending.sent - pending.due));
            result.service_ms.push_back(Ms(now - pending.sent));
          }
          if (pending.compare) {
            result.kept.emplace_back(pending, std::move(line));
          }
          on_answer(connection);
        }
      }
    }
    // Whatever is still pending was never answered.
    for (Connection& connection : connections_) {
      std::lock_guard<std::mutex> lock(connection.mutex);
      result.errors += static_cast<int64_t>(connection.pending.size());
      connection.pending.clear();
    }
  }

  template <typename Done>
  void Receive(PhaseResult& result, Done done) {
    Receive(result, done, [](Connection&) {});
  }

  const std::vector<std::string>& names_;
  Rng rng_;
  ZipfRanks ranks_;
  int64_t next_id_ = 1;
  Connection connections_[kConnections];
};

}  // namespace

void RunServe(const RunOptions& options, Report& report) {
  LayerInputs layers;
  CatalogEngine setup = SetUpCatalog(options, report, &layers.create_spans);
  Distinct& engine = *setup.engine;

  // Query pool: every name with kMinNameRefs..kMaxNameRefs references,
  // sorted by size and laid out in SpreadOrder, so Zipf rank r asks for
  // pool[r] and the popular names of every seed span the same sizes.
  std::vector<std::pair<size_t, std::string>> by_size;
  std::unordered_map<std::string, size_t> group_of_name;
  for (size_t g = 0; g < engine.name_groups().size(); ++g) {
    const auto& [name, refs] = engine.name_groups()[g];
    const auto size = static_cast<int64_t>(refs.size());
    if (size >= kMinNameRefs && size <= kMaxNameRefs) {
      by_size.emplace_back(refs.size(), name);
      group_of_name.emplace(name, g);
    }
  }
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> pool;
  for (const size_t index : SpreadOrder(by_size.size())) {
    pool.push_back(by_size[index].second);
  }
  report.Fact("query_names", static_cast<int64_t>(pool.size()));
  report.Fact("connections", static_cast<int64_t>(kConnections));
  report.Fact("load_threads", static_cast<int64_t>(2));

  serve::ServiceOptions service_options;
  service_options.num_threads = kThreads;
  serve::ServeService service(engine, service_options);
  serve::ServeServer server(&service, serve::ServerOptions{});
  DieIfError(server.Start(), "server start");

  // Warm-up at the open-loop rate (not recorded), the open loop that the
  // cost and latency come from, then a short closed loop for capacity.
  const double warmup_s = 0.1 * options.seconds;
  const double window_s = 0.8 * options.seconds / kWindows;
  const double closed_s = 0.1 * options.seconds;
  LoadGenerator load(pool, options.seed);
  DieIfError(load.Connect(server.port()), "load generator connect");
  const PhaseResult warmup = load.OpenLoop(kOpenLoopQps, warmup_s);
  layers.measured_before = obs::MetricsRegistry::Global().Snapshot();
  const serve::ServiceStats stats_before = service.stats();
  PhaseResult open;
  PhaseResult closed;
  std::vector<double> window_cpu_ms;  // server CPU per answered request
  {
    DISTINCT_TRACE_SPAN("serve.load");
    for (int w = 0; w < kWindows; ++w) {
      const OpTimer timer;
      PhaseResult window = load.OpenLoop(kOpenLoopQps, window_s);
      window_cpu_ms.push_back(
          (timer.CpuMs() - window.generator_cpu_s * 1e3) /
          static_cast<double>(std::max<int64_t>(window.answered, 1)));
      open.Absorb(std::move(window));
    }
    closed = load.ClosedLoop(closed_s);
  }
  layers.measured_after = obs::MetricsRegistry::Global().Snapshot();
  const serve::ServiceStats stats = service.stats();
  server.Shutdown();
  report.Check(server.connections() == 0, "server drained every connection");

  // The open loop sends the same seeded requests on every run, so the
  // server's CPU per answered request is the gated cost; latency and
  // capacity are the wall-clock view.
  report.CountOps(warmup.sent + open.sent + closed.sent,
                  warmup.errors + open.errors + closed.errors);
  report.Add(MetricKind::kEndToEnd, "cpu_ms_per_op", Median(window_cpu_ms),
             "ms");
  report.Add(MetricKind::kEndToEnd, "peak_rss_mb", PeakRssMb(), "MB");
  report.Add(MetricKind::kExtra, "ops", static_cast<double>(open.answered),
             "count");
  report.Add(MetricKind::kExtra, "wall.p50_ms",
             Percentile(open.latency_ms, 0.50), "ms");
  report.Add(MetricKind::kExtra, "wall.p90_ms",
             Percentile(open.latency_ms, 0.90), "ms");
  report.Add(MetricKind::kExtra, "wall.p99_ms",
             Percentile(open.latency_ms, 0.99), "ms");
  report.Add(MetricKind::kExtra, "serve.rate_qps", kOpenLoopQps, "1/s");
  report.Add(MetricKind::kExtra, "serve.capacity_qps",
             static_cast<double>(closed.answered) / closed.seconds, "1/s");
  report.Add(MetricKind::kExtra, "serve.closed_p50_ms",
             Percentile(closed.latency_ms, 0.5), "ms");
  report.Add(MetricKind::kExtra, "serve.queue_ms",
             Percentile(open.queue_ms, 0.5), "ms");
  report.Add(MetricKind::kExtra, "serve.service_ms",
             Percentile(open.service_ms, 0.5), "ms");
  report.Add(MetricKind::kExtra, "serve.generator_late_ms",
             Percentile(open.queue_ms, 1.0), "ms");
  report.Add(MetricKind::kExtra, "serve.backlog_end",
             static_cast<double>(open.backlog_end), "count");
  const double queries = static_cast<double>(
      std::max<int64_t>(stats.queries - stats_before.queries, 1));
  report.Add(MetricKind::kExtra, "serve.cache_hit_rate",
             static_cast<double>(stats.cache_hits - stats_before.cache_hits) /
                 queries,
             "ratio");
  report.Add(MetricKind::kExtra, "serve.batched_share",
             static_cast<double>(stats.batched - stats_before.batched) /
                 queries,
             "ratio");
  report.Add(MetricKind::kExtra, "serve.rejected",
             static_cast<double>(stats.rejected_inflight +
                                 stats.rejected_memory),
             "count");

  // Outside the measured phases: a seeded share of the responses must be
  // byte-identical to the batch engine's answer in the wire encoding.
  std::unordered_map<size_t, serve::ResolveAnswer> truth;
  int64_t compared = 0;
  int64_t mismatched = 0;
  for (const PhaseResult* phase :
       std::initializer_list<const PhaseResult*>{&warmup, &open, &closed}) {
    for (const auto& [pending, line] : phase->kept) {
      auto it = truth.find(pending.name);
      if (it == truth.end()) {
        auto resolved = engine.ResolveName(pool[pending.name]);
        DieIfError(resolved.status(), "batch ResolveName");
        serve::ResolveAnswer answer;
        answer.refs = std::move(resolved->refs);
        answer.clustering = std::move(resolved->clustering);
        it = truth.emplace(pending.name, std::move(answer)).first;
      }
      ++compared;
      mismatched += line != serve::AnswerResponseJson(
                                pending.id, serve::Method::kResolveName,
                                pool[pending.name], it->second)
                        ? 1
                        : 0;
    }
  }
  report.Add(MetricKind::kExtra, "serve.compared", static_cast<double>(compared),
             "count");
  report.Check(compared > 0 && mismatched == 0,
               StrFormat("%lld sampled responses byte-identical to batch "
                         "ResolveName (%lld differ)",
                         static_cast<long long>(compared),
                         static_cast<long long>(mismatched)));

  if (options.trace) {
    // The service computes inside one call, so the layer split comes from
    // replaying the names it was asked for, in first-asked order (the
    // first kMaxReplayNames of them bound the replay's length).
    constexpr size_t kMaxReplayNames = 250;
    std::vector<NameGroup> asked;
    std::vector<char> seen(pool.size(), 0);
    for (const PhaseResult* phase : {&open, &closed}) {
      for (const size_t name : phase->asked) {
        if (!seen[name] && asked.size() < kMaxReplayNames) {
          seen[name] = 1;
          const auto& group =
              engine.name_groups()[group_of_name.at(pool[name])];
          asked.push_back({group.first, group.second});
        }
      }
    }
    FinishTracedRun(options, engine, asked, nullptr,
                    CatalogSweepSample(CatalogScanGroups(engine)), "replay",
                    std::move(layers), report);
  }
}

}  // namespace e2e
}  // namespace distinct
