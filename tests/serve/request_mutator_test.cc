// Seeded request-line mutator for the resident service: valid
// resolve_name, classify_row, stats and health lines are truncated at every
// length and mutated for a fixed budget — byte flips, dropped or doubled
// quotes and braces, oversized ids and rows, NUL bytes and bytes that are
// not UTF-8. Every mutated line must come back as exactly one response
// line: non-empty, no newline, and a JSON object.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "core/distinct.h"
#include "obs/json_reader.h"
#include "serve/service.h"

namespace distinct {
namespace serve {
namespace {

const std::vector<std::string>& ValidLines() {
  static const std::vector<std::string> lines = {
      R"({"id":7,"method":"resolve_name","name":"Wei Wang"})",
      R"({"id":8,"method":"resolve_name","name":"Jian Pei","deadline_ms":500})",
      R"({"id":3,"method":"classify_row","row":2})",
      R"({"id":1,"method":"stats"})",
      R"({"id":2,"method":"health"})",
  };
  return lines;
}

/// One mutation of `line`, chosen and placed by `rng`.
std::string Mutate(const std::string& line, Rng& rng) {
  static const std::vector<std::string> oversized = {
      "99999999999999999999999999",
      "-9223372036854775809",
      "9223372036854775807",
      "1e400",
      "-0.5",
      std::string(4096, '9'),
  };
  static const std::vector<std::string> hostile = {
      std::string(1, '\0'), "\xff", "\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80",
      "\x80\x80", "\xfe\xff",
  };
  std::string out = line;
  const auto at = [&](size_t size) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(size == 0 ? 0 : size - 1)));
  };
  switch (rng.UniformInt(0, 4)) {
    case 0: {  // flip one bit of one byte
      const size_t i = at(out.size());
      out[i] = static_cast<char>(out[i] ^ (1 << rng.UniformInt(0, 7)));
      break;
    }
    case 1: {  // drop or double a quote or a brace
      std::vector<size_t> marks;
      for (size_t i = 0; i < out.size(); ++i) {
        if (out[i] == '"' || out[i] == '{' || out[i] == '}') {
          marks.push_back(i);
        }
      }
      const size_t i = marks[at(marks.size())];
      if (rng.Bernoulli(0.5)) {
        out.erase(i, 1);
      } else {
        out.insert(i, 1, out[i]);
      }
      break;
    }
    case 2: {  // an oversized id or row
      const std::string key = rng.Bernoulli(0.5) ? "\"id\":" : "\"row\":";
      const size_t pos = out.find(key);
      const std::string& value = oversized[at(oversized.size())];
      if (pos == std::string::npos) {
        out.insert(1, key + value + ",");
      } else {
        const size_t begin = pos + key.size();
        const size_t end = out.find_first_of(",}", begin);
        out.replace(begin, end - begin, value);
      }
      break;
    }
    case 3: {  // a NUL or non-UTF-8 sequence anywhere
      out.insert(at(out.size() + 1), hostile[at(hostile.size())]);
      break;
    }
    default: {  // an oversized name
      const size_t pos = out.find("\"name\":\"");
      if (pos != std::string::npos) {
        out.insert(pos + 8, std::string(static_cast<size_t>(rng.UniformInt(
                                            1000, 100000)),
                                        'x'));
      } else {
        out.insert(out.size() - 1, ",\"name\":\"" + std::string(5000, 'y') +
                                       "\"");
      }
      break;
    }
  }
  return out;
}

void ExpectOneResponseLine(ServeService& service, const std::string& line) {
  const std::string response = service.HandleLine(line);
  SCOPED_TRACE(::testing::Message() << "request of " << line.size()
                                    << " bytes: " << line.substr(0, 120));
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response.find('\n'), std::string::npos) << response;
  auto parsed = obs::JsonReader(response, "response").Parse();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << response;
  EXPECT_EQ(parsed->kind, obs::JsonValue::Kind::kObject) << response;
}

TEST(ServeRequestMutatorTest, EveryTruncationGetsOneJsonResponse) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  ServeService service(*engine, ServiceOptions{});
  for (const std::string& line : ValidLines()) {
    for (size_t length = 0; length <= line.size(); ++length) {
      ExpectOneResponseLine(service, line.substr(0, length));
    }
  }
}

TEST(ServeRequestMutatorTest, SeededMutationsGetOneJsonResponse) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  ServeService service(*engine, ServiceOptions{});
  constexpr int kBudget = 3000;
  Rng rng(20260101);
  for (int i = 0; i < kBudget; ++i) {
    const std::string& seed =
        ValidLines()[static_cast<size_t>(rng.UniformInt(0, 4))];
    std::string line = Mutate(seed, rng);
    if (rng.Bernoulli(0.3)) {
      line = Mutate(line, rng);  // some lines carry two mutations
    }
    ExpectOneResponseLine(service, line);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace distinct
