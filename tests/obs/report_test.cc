#include "obs/report.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace distinct {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to schema-check the
// run report without adding a dependency. Numbers are doubles; parse errors
// surface as nullptr from Parse().

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::unique_ptr<JsonValue> Parse() {
    auto value = std::make_unique<JsonValue>();
    if (!ParseValue(*value)) {
      return nullptr;
    }
    SkipSpace();
    return pos_ == text_.size() ? std::move(value) : nullptr;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return ParseString(out.string_value);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.bool_value = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      SkipSpace();
      std::string key;
      if (!ParseString(key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
    } while (Consume(','));
    return Consume('}');
  }

  bool ParseArray(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
    } while (Consume(','));
    return Consume(']');
  }

  bool ParseString(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char escape = text_[pos_++];
        switch (escape) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            const int code =
                std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            c = static_cast<char>(code);  // test JSON stays in ASCII
            break;
          }
          default: c = escape; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    SetEnabled(true);
    MetricsRegistry::Global().Reset();
    Tracer::Global().Reset();
  }
  void TearDown() override { SetEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

/// Records a small, fully known workload.
void RecordFixture() {
  {
    DISTINCT_TRACE_SPAN("outer");
    { DISTINCT_TRACE_SPAN("inner"); }
  }
  // 1000 pairs in exactly 1 second of recorded fill time => 1000 pairs/sec.
  DISTINCT_COUNTER_ADD("sim.pairs_computed", 1000);
  DISTINCT_HISTOGRAM_RECORD("sim.pair_matrix_nanos", 1000000000);
  DISTINCT_GAUGE_SET("test.gauge", 3);
}

TEST_F(ReportTest, JsonHasSchemaVersionAndAllSections) {
  RecordFixture();
  const RunReport report = CollectRunReport("unit-test");
  const std::string json = RunReportToJson(report);

  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_NE(root, nullptr) << json;
  ASSERT_EQ(root->kind, JsonValue::Kind::kObject);

  const JsonValue* version = root->Get("distinct_run_report");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, RunReport::kSchemaVersion);

  const JsonValue* label = root->Get("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string_value, "unit-test");

  for (const char* key : {"stages", "spans", "histograms"}) {
    const JsonValue* section = root->Get(key);
    ASSERT_NE(section, nullptr) << key;
    EXPECT_EQ(section->kind, JsonValue::Kind::kArray) << key;
  }
  for (const char* key : {"counters", "gauges", "derived"}) {
    const JsonValue* section = root->Get(key);
    ASSERT_NE(section, nullptr) << key;
    EXPECT_EQ(section->kind, JsonValue::Kind::kObject) << key;
  }
}

TEST_F(ReportTest, JsonCarriesRecordedValuesAndDerivedRates) {
  RecordFixture();
  const std::string json = RunReportToJson(CollectRunReport("unit-test"));
  auto root = JsonParser(json).Parse();
  ASSERT_NE(root, nullptr) << json;

  const JsonValue* pairs =
      root->Get("counters")->Get("sim.pairs_computed");
  ASSERT_NE(pairs, nullptr);
  EXPECT_EQ(pairs->number, 1000.0);

  const JsonValue* gauge = root->Get("gauges")->Get("test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->number, 3.0);

  // 1000 pairs over 1e9 summed fill nanoseconds -> 1000 pairs/sec.
  const JsonValue* rate =
      root->Get("derived")->Get("pair_matrix.pairs_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_NEAR(rate->number, 1000.0, 1e-6);

  // Spans: outer (root) then inner (child of 0).
  const JsonValue* spans = root->Get("spans");
  ASSERT_EQ(spans->array.size(), 2u);
  EXPECT_EQ(spans->array[0].Get("name")->string_value, "outer");
  EXPECT_EQ(spans->array[0].Get("parent")->number, -1.0);
  EXPECT_EQ(spans->array[1].Get("name")->string_value, "inner");
  EXPECT_EQ(spans->array[1].Get("parent")->number, 0.0);

  // Stages aggregate by root-to-span path.
  const JsonValue* stages = root->Get("stages");
  ASSERT_EQ(stages->array.size(), 2u);
  EXPECT_EQ(stages->array[0].Get("path")->string_value, "outer");
  EXPECT_EQ(stages->array[1].Get("path")->string_value, "outer/inner");
  EXPECT_EQ(stages->array[1].Get("calls")->number, 1.0);

  // Histograms carry count/sum and the bucket array.
  const JsonValue* histograms = root->Get("histograms");
  ASSERT_EQ(histograms->array.size(), 1u);
  const JsonValue& fill = histograms->array[0];
  EXPECT_EQ(fill.Get("name")->string_value, "sim.pair_matrix_nanos");
  EXPECT_EQ(fill.Get("count")->number, 1.0);
  EXPECT_EQ(fill.Get("sum_ns")->number, 1e9);
  ASSERT_NE(fill.Get("buckets"), nullptr);
  EXPECT_FALSE(fill.Get("buckets")->array.empty());
}

TEST_F(ReportTest, JsonRoundTripsThroughAFile) {
  RecordFixture();
  const RunReport report = CollectRunReport("round-trip");
  const std::string path =
      ::testing::TempDir() + "/distinct_report_test.json";
  ASSERT_TRUE(WriteRunReportJson(report, path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), RunReportToJson(report));

  auto root = JsonParser(buffer.str()).Parse();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->Get("label")->string_value, "round-trip");
  std::remove(path.c_str());
}

TEST_F(ReportTest, TextReportMentionsEverySection) {
  RecordFixture();
  const std::string text = RunReportToText(CollectRunReport("unit-test"));
  EXPECT_NE(text.find("run report: unit-test"), std::string::npos);
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("inner"), std::string::npos);
  EXPECT_NE(text.find("sim.pairs_computed"), std::string::npos);
  EXPECT_NE(text.find("sim.pair_matrix_nanos"), std::string::npos);
  EXPECT_NE(text.find("pair_matrix.pairs_per_sec"), std::string::npos);
}

TEST_F(ReportTest, JsonWriterEscapesAndNests) {
  JsonWriter json;
  json.BeginObject();
  json.Key("quote\"backslash\\newline\n").Value("tab\there");
  json.Key("nested").BeginArray();
  json.Value(int64_t{-7});
  json.Value(true);
  json.Value(0.5);
  json.EndArray();
  json.EndObject();
  const std::string text = json.str();

  auto root = JsonParser(text).Parse();
  ASSERT_NE(root, nullptr) << text;
  const JsonValue* escaped = root->Get("quote\"backslash\\newline\n");
  ASSERT_NE(escaped, nullptr);
  EXPECT_EQ(escaped->string_value, "tab\there");
  const JsonValue* nested = root->Get("nested");
  ASSERT_EQ(nested->array.size(), 3u);
  EXPECT_EQ(nested->array[0].number, -7.0);
  EXPECT_TRUE(nested->array[1].bool_value);
  EXPECT_EQ(nested->array[2].number, 0.5);
}

}  // namespace
}  // namespace obs
}  // namespace distinct
