#include "train/training_set.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/string_util.h"

namespace distinct {

namespace {

/// What a training-set failure adds to its count: the names scanned, the
/// rarity thresholds in force and the ways to run without sampling.
std::string RareNameHint(const RareNameIndex& index,
                         const RareNameOptions& rare) {
  return StrFormat(
      " (%lld names scanned; a name is likely unique when its first part "
      "is on at most max_first_name_count=%d names, its last part on at "
      "most max_last_name_count=%d, and it has min_refs=%d to "
      "max_refs=%d references). Raise those RareNameOptions thresholds, "
      "resolve unsupervised (supervised = false, CLI --unsupervised), or "
      "load a saved model (CLI --model)",
      static_cast<long long>(index.names_scanned()),
      rare.max_first_name_count, rare.max_last_name_count, rare.min_refs,
      rare.max_refs);
}

}  // namespace

StatusOr<std::vector<TrainingPair>> BuildTrainingSet(
    const Database& db, const ReferenceSpec& spec,
    const TrainingSetOptions& options) {
  auto index = RareNameIndex::Build(db, spec, options.rare);
  DISTINCT_RETURN_IF_ERROR(index.status());
  const std::vector<UniqueAuthor>& authors = index->unique_authors();
  if (authors.size() < 2) {
    return FailedPreconditionError(
        StrFormat("training set: only %zu likely-unique authors found",
                  authors.size()) +
        RareNameHint(*index, options.rare));
  }

  Rng rng(options.seed);
  std::vector<TrainingPair> pairs;
  pairs.reserve(static_cast<size_t>(options.num_positive) +
                static_cast<size_t>(options.num_negative));

  // Positives: round-robin over shuffled authors, a few pairs each.
  std::vector<size_t> author_order(authors.size());
  for (size_t i = 0; i < authors.size(); ++i) {
    author_order[i] = i;
  }
  rng.Shuffle(author_order);

  int positives = 0;
  for (int round = 0; round < options.max_pairs_per_author &&
                      positives < options.num_positive;
       ++round) {
    for (const size_t a : author_order) {
      if (positives >= options.num_positive) {
        break;
      }
      const auto& refs = authors[a].publish_rows;
      const int64_t possible =
          static_cast<int64_t>(refs.size()) *
          (static_cast<int64_t>(refs.size()) - 1) / 2;
      if (possible <= round) {
        continue;
      }
      // A fresh random pair; collisions across rounds are acceptable noise.
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(refs.size()) - 1));
      size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(refs.size()) - 2));
      if (j >= i) {
        ++j;
      }
      pairs.push_back(TrainingPair{refs[i], refs[j], +1});
      ++positives;
    }
  }
  if (positives < options.num_positive) {
    return FailedPreconditionError(
        StrFormat("training set: could only sample %d of %d positive pairs "
                  "from %zu likely-unique authors",
                  positives, options.num_positive, authors.size()) +
        RareNameHint(*index, options.rare));
  }

  // Negatives: two distinct likely-unique authors, one reference each.
  for (int n = 0; n < options.num_negative; ++n) {
    const size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(authors.size()) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(authors.size()) - 2));
    if (b >= a) {
      ++b;
    }
    const auto& refs_a = authors[a].publish_rows;
    const auto& refs_b = authors[b].publish_rows;
    const int32_t ref1 = refs_a[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(refs_a.size()) - 1))];
    const int32_t ref2 = refs_b[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(refs_b.size()) - 1))];
    pairs.push_back(TrainingPair{ref1, ref2, -1});
  }
  return pairs;
}

}  // namespace distinct
