#include "sim/similarity_model_io.h"

#include "common/io_util.h"
#include "common/string_util.h"

namespace distinct {
namespace {

constexpr char kMagic[] = "distinct-similarity-model v1";

}  // namespace

std::string SerializeSimilarityModel(const SimilarityModel& model) {
  std::string out = kMagic;
  out += '\n';
  out += StrFormat("paths %zu\n", model.num_paths());
  for (size_t p = 0; p < model.num_paths(); ++p) {
    const std::string name =
        model.path_names().empty() ? StrFormat("path %zu", p)
                                   : model.path_names()[p];
    out += StrFormat("%.17g %.17g\t%s\n", model.resem_weights()[p],
                     model.walk_weights()[p], name.c_str());
  }
  return out;
}

StatusOr<SimilarityModel> ParseSimilarityModel(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string& line : Split(text, '\n')) {
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') {
      continue;
    }
    lines.emplace_back(line);  // keep interior tabs intact
  }
  if (lines.empty() ||
      StripWhitespace(lines[0]) != std::string_view(kMagic)) {
    return DataLossError("similarity model: missing or unknown header");
  }
  if (lines.size() < 2 || !StartsWith(StripWhitespace(lines[1]), "paths ")) {
    return DataLossError("similarity model: expected 'paths' line");
  }
  auto count =
      ParseInt64(std::string_view(StripWhitespace(lines[1])).substr(6));
  if (!count.has_value() || *count < 0) {
    return DataLossError("similarity model: malformed path count");
  }
  if (lines.size() != 2 + static_cast<size_t>(*count)) {
    return DataLossError(StrFormat(
        "similarity model: expected %lld path lines, found %zu",
        static_cast<long long>(*count), lines.size() - 2));
  }

  std::vector<double> resem_weights;
  std::vector<double> walk_weights;
  std::vector<std::string> path_names;
  for (int64_t p = 0; p < *count; ++p) {
    const std::string& line = lines[2 + static_cast<size_t>(p)];
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return DataLossError(StrFormat(
          "similarity model: path line %lld has no name separator",
          static_cast<long long>(p)));
    }
    const std::vector<std::string> numbers =
        SplitSkipEmpty(line.substr(0, tab), ' ');
    if (numbers.size() != 2) {
      return DataLossError(StrFormat(
          "similarity model: path line %lld needs two weights",
          static_cast<long long>(p)));
    }
    auto resem = ParseDouble(numbers[0]);
    auto walk = ParseDouble(numbers[1]);
    if (!resem.has_value() || !walk.has_value()) {
      return DataLossError(StrFormat(
          "similarity model: malformed weight on path line %lld",
          static_cast<long long>(p)));
    }
    resem_weights.push_back(*resem);
    walk_weights.push_back(*walk);
    path_names.emplace_back(StripWhitespace(line.substr(tab + 1)));
  }
  if (resem_weights.empty()) {
    return DataLossError("similarity model: zero paths");
  }
  return SimilarityModel(std::move(resem_weights), std::move(walk_weights),
                         std::move(path_names));
}

Status SaveSimilarityModel(const SimilarityModel& model,
                           const std::string& path) {
  // Atomic replacement: a failed write leaves the previous model in place.
  return ReplaceFileDurable(path, SerializeSimilarityModel(model),
                            "similarity model");
}

StatusOr<SimilarityModel> LoadSimilarityModel(const std::string& path) {
  auto text = ReadFileToString(path, "similarity model");
  DISTINCT_RETURN_IF_ERROR(text.status());
  return ParseSimilarityModel(*text);
}

}  // namespace distinct
