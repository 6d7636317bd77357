#include "core/sweep_merge.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/json.hpp"

namespace dnnlife::core {

namespace {

using util::JsonValue;

/// Plausibility cap on an untrusted summary's scenario count (the shard
/// count's is SuiteShard::kMaxCount): merge sizes its cover bookkeeping
/// from them, so a corrupt document must fail with a named error instead
/// of a multi-gigabyte allocation.
constexpr std::uint64_t kMaxScenarios = 100'000'000;

std::string describe(const SuiteSummary& summary) {
  return summary.label.empty() ? std::string("<unnamed summary>")
                               : "'" + summary.label + "'";
}

}  // namespace

SuiteSummary parse_suite_summary(const std::string& json_text,
                                 const std::string& label) {
  SuiteSummary summary;
  summary.label = label;
  try {
    const JsonValue root = JsonValue::parse(json_text);
    if (const JsonValue* manifest = root.find("manifest")) {
      summary.info.manifest_hash = manifest->at("hash").as_string();
      const std::uint64_t total = manifest->at("scenarios").as_uint();
      if (total > kMaxScenarios)
        throw std::invalid_argument("manifest scenario count " +
                                    std::to_string(total) +
                                    " is implausibly large");
      summary.info.total_scenarios = static_cast<std::size_t>(total);
    }
    if (const JsonValue* shard = root.find("shard")) {
      // Validate before narrowing: a corrupt document must fail with a
      // named error, not a silent 32-bit truncation, and the counts also
      // size vectors in merge_suite_summaries, so they are bounded here.
      summary.info.shard = SuiteShard::checked(shard->at("index").as_uint(),
                                               shard->at("count").as_uint());
    }
    const std::vector<JsonValue>& entries = root.at("scenarios").items();
    summary.records.reserve(entries.size());
    bool with_timing = false, without_timing = false;
    for (const JsonValue& entry : entries) {
      bool has_timing = false;
      SuiteRecord record = parse_suite_record(entry, &has_timing);
      (has_timing ? with_timing : without_timing) = true;
      summary.records.push_back(std::move(record));
    }
    if (with_timing && without_timing)
      throw std::invalid_argument(
          "summary mixes entries with and without wall_seconds");
    summary.info.include_timing = with_timing || summary.records.empty();
    if (summary.info.manifest_hash.empty())
      summary.info.total_scenarios = summary.records.size();
  } catch (const std::exception& error) {
    throw std::invalid_argument("sweep summary " + describe(summary) + ": " +
                                error.what());
  }
  return summary;
}

SuiteSummary suite_summary_from_journal(const SweepJournalContents& journal,
                                        const std::string& label) {
  SuiteSummary summary;
  summary.label = label;
  summary.info.manifest_hash = journal.header.manifest_hash;
  summary.info.total_scenarios = journal.header.total_scenarios;
  summary.info.shard = journal.header.shard;
  summary.info.include_timing = journal.header.include_timing;
  summary.records = journal.records;
  return summary;
}

SuiteSummary merge_suite_summaries(std::vector<SuiteSummary> shards,
                                   const MergeOptions& options) {
  if (shards.empty())
    throw std::invalid_argument("no shard summaries to merge");
  const SuiteSummary& first = shards.front();
  for (const SuiteSummary& shard : shards) {
    if (shard.info.manifest_hash.empty())
      throw std::invalid_argument(
          "sweep summary " + describe(shard) +
          " carries no manifest; only summaries written by the sweep "
          "runner with a loaded suite can be merged");
    if (shard.info.manifest_hash != first.info.manifest_hash)
      throw std::invalid_argument(
          "sweep summaries " + describe(first) + " and " + describe(shard) +
          " come from different sweeps (manifest hash " +
          first.info.manifest_hash + " vs " + shard.info.manifest_hash + ")");
    if (shard.info.total_scenarios != first.info.total_scenarios)
      throw std::invalid_argument(
          "sweep summaries " + describe(first) + " and " + describe(shard) +
          " disagree on the sweep size (" +
          std::to_string(first.info.total_scenarios) + " vs " +
          std::to_string(shard.info.total_scenarios) + ")");
    if (shard.info.shard.count != first.info.shard.count)
      throw std::invalid_argument(
          "sweep summaries " + describe(first) + " and " + describe(shard) +
          " disagree on the shard count (" +
          std::to_string(first.info.shard.count) + " vs " +
          std::to_string(shard.info.shard.count) + ")");
  }

  const unsigned count = first.info.shard.count;
  const std::size_t total = first.info.total_scenarios;
  // Tolerate any CLI order: sort the shards, then validate the cover.
  std::sort(shards.begin(), shards.end(),
            [](const SuiteSummary& a, const SuiteSummary& b) {
              return a.info.shard.index < b.info.shard.index;
            });
  std::vector<const SuiteSummary*> by_index(count, nullptr);
  for (const SuiteSummary& shard : shards) {
    const SuiteSummary*& slot = by_index[shard.info.shard.index - 1];
    if (slot != nullptr)
      throw std::invalid_argument(
          "duplicate shard " + std::to_string(shard.info.shard.index) + "/" +
          std::to_string(count) + " (" + describe(*slot) + " and " +
          describe(shard) + ")");
    slot = &shard;
  }
  if (!options.allow_partial) {
    for (unsigned k = 0; k < count; ++k)
      if (by_index[k] == nullptr)
        throw std::invalid_argument("missing shard " + std::to_string(k + 1) +
                                    "/" + std::to_string(count));
  }

  SuiteSummary merged;
  merged.info.manifest_hash = first.info.manifest_hash;
  merged.info.total_scenarios = total;
  merged.info.shard = SuiteShard{};  // the merged view is unsharded
  bool timing_known = false;
  std::vector<char> covered(total, 0);
  merged.records.reserve(total);
  for (const SuiteSummary& shard : shards) {
    if (!shard.records.empty()) {
      if (!timing_known) {
        merged.info.include_timing = shard.info.include_timing;
        timing_known = true;
      } else if (merged.info.include_timing != shard.info.include_timing) {
        throw std::invalid_argument(
            "sweep summary " + describe(shard) +
            " disagrees with the other shards on wall-clock reporting");
      }
    }
    for (const SuiteRecord& record : shard.records) {
      if (record.index >= total)
        throw std::invalid_argument(
            "sweep summary " + describe(shard) + ": scenario index " +
            std::to_string(record.index) + " exceeds the sweep size " +
            std::to_string(total));
      if (!shard.info.shard.contains(record.index))
        throw std::invalid_argument(
            "sweep summary " + describe(shard) + ": scenario index " +
            std::to_string(record.index) + " does not belong to shard " +
            std::to_string(shard.info.shard.index) + "/" +
            std::to_string(count));
      if (covered[record.index])
        throw std::invalid_argument("scenario index " +
                                    std::to_string(record.index) +
                                    " appears in more than one shard");
      covered[record.index] = 1;
      merged.records.push_back(record);
    }
  }
  if (merged.records.size() != total) {
    if (!options.allow_partial)
      throw std::invalid_argument(
          "merged shards cover " + std::to_string(merged.records.size()) +
          " of " + std::to_string(total) +
          " scenarios; the cover is incomplete");
    // Partial aggregate: name every absent index so the operator can
    // resubmit exactly the missing work.
    for (std::size_t i = 0; i < total; ++i)
      if (!covered[i]) merged.info.missing_indices.push_back(i);
  }
  std::sort(merged.records.begin(), merged.records.end(),
            [](const SuiteRecord& a, const SuiteRecord& b) {
              return a.index < b.index;
            });
  return merged;
}

}  // namespace dnnlife::core
