// bench_serve — closed-loop stress of the resident disambiguation service
// (serve/service.h + serve/server.h), and the serving-path regression
// gate's data source.
//
// Phases (in-process mode, the default):
//   A. Latency/identity: an in-process ServeServer on an ephemeral
//      loopback port, driven by --clients concurrent socket clients each
//      issuing --queries resolve_name requests (plus periodic health
//      probes). Every resolve response is compared byte-for-byte against
//      the batch engine's answer serialized through the same protocol
//      encoder — any divergence is a hard failure, not a metric.
//   B. Admission: a second service over the same engine with a tiny
//      --budget-mb admission budget. The dataset carries a mega-name
//      whose matrix estimate is guaranteed to exceed the budget, so
//      rejection is deterministic; small names stay admissible. The phase
//      asserts rejections happened, answers still flowed, and the
//      admission peak (tracked + reserved bytes at admit time) never
//      exceeded the budget — the "provably bounded" claim the gate pins.
//   C. Deadline: a query with an already-expired deadline must come back
//      deadline_exceeded without touching the kernel (deterministic, no
//      timing dependence).
//
// With --connect=HOST:PORT the harness instead drives an external server
// (CI's smoke step): phase A load without the bit-identity comparison —
// the external server's model need not match — failing only on transport
// or internal errors.
//
// Writes BENCH_serve.json; gated metrics: serve_identical,
// admission_bounded, deadline_path_ok (bench/baselines/gate_rules.txt).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_util.h"
#include "common/flags.h"
#include "common/io_util.h"
#include "core/scan_shard.h"
#include "dblp/schema.h"
#include "obs/json_writer.h"
#include "obs/memory.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace {

using namespace distinct;
using namespace distinct::bench;

/// The guaranteed-too-big name of phase B: estimate = n*(n-1)*8 bytes, so
/// 1200 references price at ~11 MiB against a 1 MiB budget.
constexpr char kMegaName[] = "Wei Wang";
constexpr int kMegaEntities = 8;
constexpr int kMegaRefs = 1200;

std::string ResolveRequestJson(int64_t id, const std::string& name) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("id").Value(id);
  json.Key("method").Value("resolve_name");
  json.Key("name").Value(name);
  json.EndObject();
  return json.str();
}

std::string SimpleRequestJson(int64_t id, const char* method) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("id").Value(id);
  json.Key("method").Value(method);
  json.EndObject();
  return json.str();
}

int ConnectTo(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

struct ClientResult {
  std::vector<double> resolve_ms;
  std::vector<double> aux_ms;  // health probes
  int64_t mismatches = 0;
  int64_t errors = 0;
  std::string first_problem;
};

/// One closed-loop client: sequential request/response over one
/// connection. `expected` is null in external mode (no identity check).
void RunClient(const std::string& host, uint16_t port, int client_id,
               int queries, const std::vector<std::string>& names,
               const std::vector<serve::ResolveAnswer>* expected,
               ClientResult* out) {
  const int fd = ConnectTo(host, port);
  if (fd < 0) {
    out->errors = queries;
    out->first_problem = "cannot connect";
    return;
  }
  FdCloser closer{fd};
  FdLineReader reader(fd, serve::kMaxRequestBytes, "bench_serve");
  std::string line;
  for (int i = 0; i < queries; ++i) {
    const size_t idx =
        (static_cast<size_t>(client_id) + static_cast<size_t>(i) * 7) %
        names.size();
    const int64_t id = static_cast<int64_t>(client_id) * 1'000'000 + i;
    const std::string request = ResolveRequestJson(id, names[idx]) + "\n";
    const auto start = std::chrono::steady_clock::now();
    if (!WriteFdAll(fd, request, "bench_serve").ok()) {
      ++out->errors;
      out->first_problem = "write failed";
      return;
    }
    bool eof = false;
    if (!reader.ReadLine(&line, &eof).ok() || eof) {
      ++out->errors;
      out->first_problem = "read failed";
      return;
    }
    out->resolve_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (expected != nullptr) {
      const std::string want = serve::AnswerResponseJson(
          id, serve::Method::kResolveName, names[idx], (*expected)[idx]);
      if (line != want) {
        ++out->mismatches;
        if (out->first_problem.empty()) {
          out->first_problem = "mismatch for '" + names[idx] +
                               "': got " + line.substr(0, 160);
        }
      }
    } else if (line.find("\"ok\":true") == std::string::npos) {
      // External server: tolerate not_found (its catalog may differ),
      // fail on transport/internal trouble.
      if (line.find("\"not_found\"") == std::string::npos) {
        ++out->errors;
        out->first_problem = "error response: " + line.substr(0, 160);
      }
    }
    if (i % 10 == 9) {
      const std::string probe = SimpleRequestJson(id, "health") + "\n";
      const auto probe_start = std::chrono::steady_clock::now();
      bool probe_eof = false;
      if (!WriteFdAll(fd, probe, "bench_serve").ok() ||
          !reader.ReadLine(&line, &probe_eof).ok() || probe_eof ||
          line.find("\"ok\":true") == std::string::npos) {
        ++out->errors;
        out->first_problem = "health probe failed";
        return;
      }
      out->aux_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - probe_start)
              .count());
    }
  }
}

double PercentileMs(std::vector<double>* samples, double p) {
  if (samples->empty()) {
    return 0.0;
  }
  std::sort(samples->begin(), samples->end());
  const double rank = p * static_cast<double>(samples->size() - 1);
  return (*samples)[static_cast<size_t>(rank + 0.5)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "dataset generator seed");
  flags.AddInt64("clients", 8, "concurrent closed-loop clients");
  flags.AddInt64("queries", 40, "resolve queries per client");
  flags.AddInt64("threads", 2, "service kernel threads");
  flags.AddInt64("names", 32,
                 "latency-pool size (names with refs in [min-refs, 300])");
  flags.AddInt64("min-refs", 6, "smallest name admitted to the pool");
  flags.AddInt64("budget-mb", 0,
                 "phase-B admission budget in MiB; 0 = auto (standing "
                 "tracked bytes + 2 MiB: small names admit, the "
                 "mega-name's ~11 MiB estimate cannot)");
  flags.AddString("connect", "",
                  "HOST:PORT of an external server to drive instead of "
                  "the in-process one (skips identity/admission phases)");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  const int clients = MustIntInRange(flags, "clients", 1, 1024);
  const int queries = MustIntInRange(flags, "queries", 1, 1 << 20);
  const int threads = MustIntInRange(flags, "threads", 1, 4096);
  const int name_pool = MustIntInRange(flags, "names", 1, 1 << 16);
  const int64_t min_refs = MustInt64InRange(flags, "min-refs", 2, 1 << 20);
  int64_t budget_mb =
      MustInt64InRange(flags, "budget-mb", 0, int64_t{1} << 30);
  const std::string connect = flags.GetString("connect");

  PrintBanner("bench_serve",
              "resident serving: batching, deadlines, admission "
              "(implementation, not a paper figure)");

  BenchJson json("serve");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("clients", static_cast<int64_t>(clients));
  json.Add("queries_per_client", static_cast<int64_t>(queries));

  // ---- External mode: smoke-drive a running server and exit. ----------
  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    const int64_t port_value =
        colon == std::string::npos
            ? -1
            : ParseInt64(connect.substr(colon + 1)).value_or(-1);
    if (port_value <= 0 || port_value > 65535) {
      std::fprintf(stderr, "--connect wants HOST:PORT, got '%s'\n",
                   connect.c_str());
      return 1;
    }
    const std::string host = connect.substr(0, colon);
    // The CLI's generated dataset contains the default resolve target.
    std::vector<std::string> names = {kMegaName};
    std::vector<ClientResult> results(static_cast<size_t>(clients));
    std::vector<std::thread> workers;
    const auto wall_start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back(RunClient, host,
                           static_cast<uint16_t>(port_value), c, queries,
                           std::cref(names), nullptr,
                           &results[static_cast<size_t>(c)]);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    std::vector<double> latencies;
    int64_t errors = 0;
    for (const ClientResult& result : results) {
      latencies.insert(latencies.end(), result.resolve_ms.begin(),
                       result.resolve_ms.end());
      errors += result.errors;
      if (result.errors > 0) {
        std::fprintf(stderr, "client problem: %s\n",
                     result.first_problem.c_str());
      }
    }
    const double p50 = PercentileMs(&latencies, 0.50);
    const double p99 = PercentileMs(&latencies, 0.99);
    std::printf("external %s: %zu responses, %lld errors, p50 %.3f ms, "
                "p99 %.3f ms, %.0f qps\n",
                connect.c_str(), latencies.size(),
                static_cast<long long>(errors), p50, p99,
                static_cast<double>(latencies.size()) / wall_s);
    json.Add("external", connect);
    json.Add("resolve_p50_ms", p50);
    json.Add("resolve_p99_ms", p99);
    json.Add("errors", errors);
    json.Write();
    return errors == 0 ? 0 : 1;
  }

  // ---- Shared fixture: dataset with a guaranteed-oversized name. ------
  GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  generator.ambiguous = {{kMegaName, kMegaEntities, kMegaRefs}};
  DblpDataset dataset = MustGenerate(generator);

  DistinctConfig config;
  config.supervised = false;  // serving, not training, is measured
  config.promotions = DblpDefaultPromotions();
  config.min_sim = kDefaultMinSim;
  Distinct engine = MustCreate(dataset.db, config);

  // Latency pool: moderate names only — the mega-name is phase B's.
  std::vector<std::string> names;
  for (const auto& group : engine.name_groups()) {
    const auto size = static_cast<int64_t>(group.second.size());
    if (size >= min_refs && size <= 300 &&
        static_cast<int>(names.size()) < name_pool) {
      names.push_back(group.first);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "no name groups in [%lld, 300] refs\n",
                 static_cast<long long>(min_refs));
    return 1;
  }

  // Batch truth, serialized through the same encoder the server uses.
  std::vector<serve::ResolveAnswer> expected;
  expected.reserve(names.size());
  for (const std::string& name : names) {
    auto result = engine.ResolveName(name);
    if (!result.ok()) {
      std::fprintf(stderr, "batch resolve '%s' failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    serve::ResolveAnswer answer;
    answer.refs = std::move(result->refs);
    answer.clustering = std::move(result->clustering);
    expected.push_back(std::move(answer));
  }
  std::printf("%zu-name pool, %d clients x %d queries, %d kernel "
              "thread(s)\n\n",
              names.size(), clients, queries, threads);

  // ---- Phase A: concurrent latency + bit-identity. --------------------
  serve::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.result_cache_entries = 0;  // measure computes, not hits
  serve::ServeService service(engine, service_options);
  serve::ServeServer server(&service, serve::ServerOptions{});
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<ClientResult> results(static_cast<size_t>(clients));
  std::vector<std::thread> workers;
  const auto wall_start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back(RunClient, std::string("127.0.0.1"),
                         server.port(), c, queries, std::cref(names),
                         &expected, &results[static_cast<size_t>(c)]);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  server.Shutdown();
  const bool drained = server.connections() == 0;

  std::vector<double> resolve_ms;
  std::vector<double> health_ms;
  int64_t mismatches = 0;
  int64_t errors = 0;
  for (const ClientResult& result : results) {
    resolve_ms.insert(resolve_ms.end(), result.resolve_ms.begin(),
                      result.resolve_ms.end());
    health_ms.insert(health_ms.end(), result.aux_ms.begin(),
                     result.aux_ms.end());
    mismatches += result.mismatches;
    errors += result.errors;
    if (!result.first_problem.empty()) {
      std::fprintf(stderr, "client problem: %s\n",
                   result.first_problem.c_str());
    }
  }
  const serve::ServiceStats load_stats = service.stats();
  const double p50 = PercentileMs(&resolve_ms, 0.50);
  const double p99 = PercentileMs(&resolve_ms, 0.99);
  const double qps = wall_s > 0
                         ? static_cast<double>(resolve_ms.size()) / wall_s
                         : 0.0;
  std::printf("phase A: %zu resolves in %.2fs (%.0f qps)\n",
              resolve_ms.size(), wall_s, qps);
  std::printf("  p50 %.3f ms, p99 %.3f ms; %lld coalesced onto flights\n",
              p50, p99, static_cast<long long>(load_stats.batched));
  std::printf("  identity: %lld mismatches, %lld errors, drain %s\n\n",
              static_cast<long long>(mismatches),
              static_cast<long long>(errors), drained ? "clean" : "DIRTY");

  // ---- Phase B: admission under a deliberately tiny budget. -----------
  // The engine (and phase A's warm memo) hold tracked standing bytes that
  // admission counts, so an absolute 1 MiB budget would reject everything;
  // auto mode leaves ~2 MiB of genuine headroom above whatever stands.
  const int64_t standing = obs::MemoryTracker::Global().TrackedTotalBytes();
  if (budget_mb == 0) {
    budget_mb = (standing >> 20) + 2;
  }
  serve::ServiceOptions tiny_options;
  tiny_options.num_threads = threads;
  tiny_options.memory_budget_mb = budget_mb;
  tiny_options.result_cache_entries = 0;
  serve::ServeService tiny(engine, tiny_options);
  const int64_t budget_bytes = budget_mb << 20;
  const int64_t mega_estimate =
      EstimatedGroupMatrixBytes(static_cast<int64_t>(kMegaRefs));
  // Admission rejects a query when standing + reserved + its estimate
  // exceed the budget, so the mega-name is rejected whenever it would be
  // on an idle service: standing + estimate > budget.
  if (standing + mega_estimate <= budget_bytes) {
    std::fprintf(stderr,
                 "mega-name estimate %lld + standing %lld <= budget %lld — "
                 "phase B cannot prove rejection\n",
                 static_cast<long long>(mega_estimate),
                 static_cast<long long>(standing),
                 static_cast<long long>(budget_bytes));
    return 1;
  }
  {
    std::vector<std::thread> admission_workers;
    for (int c = 0; c < clients; ++c) {
      admission_workers.emplace_back([&tiny, &names, c] {
        for (int i = 0; i < 8; ++i) {
          const std::string& name =
              i % 2 == 0 ? std::string(kMegaName)
                         : names[(static_cast<size_t>(c) + i) %
                                 names.size()];
          tiny.HandleLine(ResolveRequestJson(c * 100 + i, name));
        }
      });
    }
    for (std::thread& worker : admission_workers) {
      worker.join();
    }
  }
  const serve::ServiceStats tiny_stats = tiny.stats();
  const bool admission_bounded =
      tiny_stats.admission_peak_bytes <= budget_bytes;
  std::printf("phase B (budget %lld MiB): %lld rejected over memory, "
              "%lld answered, peak %lld of %lld bytes %s\n\n",
              static_cast<long long>(budget_mb),
              static_cast<long long>(tiny_stats.rejected_memory),
              static_cast<long long>(tiny_stats.answered),
              static_cast<long long>(tiny_stats.admission_peak_bytes),
              static_cast<long long>(budget_bytes),
              admission_bounded ? "(bounded)" : "(EXCEEDED)");

  // ---- Phase C: expired deadline is rejected deterministically. -------
  const auto expired = std::chrono::steady_clock::time_point::min();
  auto late = service.ResolveNameAt(names[0], expired);
  const bool deadline_ok =
      !late.ok() && late.status().code() == StatusCode::kDeadlineExceeded;
  std::printf("phase C: expired deadline -> %s\n\n",
              late.ok() ? "ANSWERED (wrong)"
                        : late.status().ToString().c_str());

  json.Add("threads", static_cast<int64_t>(threads));
  json.Add("name_pool", static_cast<int64_t>(names.size()));
  json.Add("qps", qps);
  json.Add("resolve_p50_ms", p50);
  json.Add("resolve_p99_ms", p99);
  json.Add("health_p50_ms", PercentileMs(&health_ms, 0.50));
  json.Add("batched", load_stats.batched);
  json.Add("answered", load_stats.answered);
  json.Add("mismatches", mismatches);
  json.Add("errors", errors);
  json.Add("serve_identical",
           static_cast<int64_t>(mismatches == 0 && errors == 0 ? 1 : 0));
  json.Add("drain_clean", static_cast<int64_t>(drained ? 1 : 0));
  json.Add("budget_bytes", budget_bytes);
  json.Add("rejected_memory", tiny_stats.rejected_memory);
  json.Add("admission_answered", tiny_stats.answered);
  json.Add("admission_peak_bytes", tiny_stats.admission_peak_bytes);
  json.Add("admission_bounded",
           static_cast<int64_t>(
               admission_bounded && tiny_stats.rejected_memory > 0 &&
                       tiny_stats.answered > 0
                   ? 1
                   : 0));
  json.Add("deadline_path_ok", static_cast<int64_t>(deadline_ok ? 1 : 0));
  json.Write();

  const bool ok = mismatches == 0 && errors == 0 && drained &&
                  admission_bounded && tiny_stats.rejected_memory > 0 &&
                  tiny_stats.answered > 0 && deadline_ok;
  if (!ok) {
    std::fprintf(stderr, "bench_serve FAILED hard invariants\n");
    return 1;
  }
  std::printf("all serving invariants held\n");
  return 0;
}
