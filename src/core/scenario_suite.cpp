#include "core/scenario_suite.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/sweep_journal.hpp"
#include "core/sweep_scheduler.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace dnnlife::core {

namespace {

SuiteEntry load_entry(const std::string& path) {
  try {
    std::string document = util::read_file(path);
    ScenarioSpec spec = parse_scenario(document);
    return SuiteEntry{path, std::move(spec), std::move(document)};
  } catch (const std::exception& error) {
    // Re-throw with the file named: a sweep directory error message must
    // say *which* document is broken.
    throw std::invalid_argument("scenario file '" + path +
                                "': " + error.what());
  }
}

}  // namespace

ScenarioSuite ScenarioSuite::from_directory(const std::string& directory) {
  namespace fs = std::filesystem;
  DNNLIFE_EXPECTS(fs::is_directory(directory),
                  "'" + directory + "' is not a directory");
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".json") continue;
    paths.push_back(entry.path().string());
  }
  DNNLIFE_EXPECTS(!paths.empty(), "directory '" + directory +
                                      "' holds no scenario *.json files");
  std::sort(paths.begin(), paths.end());
  return from_files(paths);
}

ScenarioSuite ScenarioSuite::from_files(const std::vector<std::string>& paths) {
  ScenarioSuite suite;
  suite.entries_.reserve(paths.size());
  for (const std::string& path : paths) suite.entries_.push_back(load_entry(path));
  return suite;
}

SuiteShard SuiteShard::checked(std::uint64_t index, std::uint64_t count) {
  if (count == 0 || count > kMaxCount || index == 0 || index > count)
    throw std::invalid_argument("shard " + std::to_string(index) + "/" +
                                std::to_string(count) + " is not valid");
  return {static_cast<unsigned>(index), static_cast<unsigned>(count)};
}

std::vector<std::size_t> ScenarioSuite::shard_selection(
    std::size_t size, const SuiteShard& shard) {
  SuiteShard::checked(shard.index, shard.count);
  std::vector<std::size_t> selection;
  for (std::size_t i = 0; i < size; ++i)
    if (shard.contains(i)) selection.push_back(i);
  return selection;
}

std::string ScenarioSuite::manifest_hash() const {
  // Mix every entry's name and exact document bytes, in suite order. The
  // path is deliberately excluded: two machines loading the same generated
  // documents from different directories still agree.
  std::uint64_t hash = util::splitmix64(entries_.size());
  for (const SuiteEntry& entry : entries_) {
    hash = util::splitmix64(hash ^ util::fnv1a64(entry.spec.name));
    hash = util::splitmix64(hash ^ util::fnv1a64(entry.document));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(hex, 16);
}

std::vector<SuiteOutcome> ScenarioSuite::run(
    const SuiteRunOptions& options) const {
  std::vector<std::size_t> selection =
      shard_selection(entries_.size(), options.shard);
  if (options.journal != nullptr) {
    // The journal binds a (manifest, shard) pair; refusing a mismatch here
    // is what stops a resumed shard from silently mixing two sweeps.
    const SweepJournalHeader& header = options.journal->header();
    if (header.manifest_hash != manifest_hash() ||
        header.total_scenarios != entries_.size())
      throw std::invalid_argument(
          "journal belongs to manifest " + header.manifest_hash + " (" +
          std::to_string(header.total_scenarios) +
          " scenarios), not this suite's " + manifest_hash() + " (" +
          std::to_string(entries_.size()) + ")");
    if (header.shard.index != options.shard.index ||
        header.shard.count != options.shard.count)
      throw std::invalid_argument(
          "journal was written by shard " + std::to_string(header.shard.index) +
          "/" + std::to_string(header.shard.count) + ", not this run's " +
          std::to_string(options.shard.index) + "/" +
          std::to_string(options.shard.count));
    // Completed work must never be redone: drop journaled indices.
    std::erase_if(selection, [&](std::size_t index) {
      return options.journal->completed(index);
    });
  }
  std::vector<SuiteOutcome> outcomes;
  outcomes.reserve(selection.size());
  if (selection.empty()) return outcomes;

  // Submit the shard's selection to the scheduler, wait, collect in suite
  // order (each handle owns its slot, so completion order cannot reorder
  // the outcomes). `jobs` is an admission budget on the shared session
  // executor, not a pool size — scenario jobs, their fast-sim commits and
  // their report evaluations all share the same workers.
  SweepScheduler::Options scheduler_options = options;  // all but the shard
  scheduler_options.expected_total = selection.size();
  SweepScheduler scheduler(std::move(scheduler_options));
  std::vector<SweepScheduler::Handle> handles;
  handles.reserve(selection.size());
  for (const std::size_t index : selection)
    handles.push_back(scheduler.submit(entries_[index], index));
  scheduler.wait_all();
  for (SweepScheduler::Handle& handle : handles)
    outcomes.push_back(handle.take_outcome());
  return outcomes;
}

std::vector<ScenarioResult> run_specs(std::span<const ScenarioSpec> specs,
                                      const SuiteRunOptions& options) {
  ScenarioSuite suite;
  for (const ScenarioSpec& spec : specs)
    suite.add(SuiteEntry{spec.name + ".json", spec, {}});
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (SuiteOutcome& outcome : suite.run(options)) {
    if (!outcome.ok)
      throw std::runtime_error("scenario '" + outcome.name +
                               "' failed: " + outcome.error);
    results.push_back(std::move(*outcome.result));
  }
  return results;
}

namespace {

constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

/// Format a metric, or "" (CSV empty / JSON null) when it is not finite —
/// an all-power-gated scenario legitimately never fails (+inf lifetime),
/// and a bare "inf" token would corrupt the JSON document.
std::string finite_num(double value, int precision) {
  return std::isfinite(value) ? util::Table::num(value, precision)
                              : std::string();
}

/// A numeric JSON field from a formatted metric ("" → null).
std::string json_number(const std::string& formatted) {
  return formatted.empty() ? "null" : formatted;
}

}  // namespace

SuiteRecord make_suite_record(const SuiteOutcome& outcome) {
  SuiteRecord record;
  record.index = outcome.index;
  record.path = outcome.path;
  record.name = outcome.name;
  record.fingerprint = outcome.fingerprint;
  record.ok = outcome.ok;
  record.timed_out = outcome.timed_out;
  record.attempts = outcome.attempts;
  record.error = outcome.error;
  record.wall_seconds = outcome.wall_seconds;
  record.snm_mean = record.snm_max = kAbsent;
  record.duty_mean = record.fraction_optimal = kAbsent;
  record.lifetime_years = record.improvement_over_worst = kAbsent;
  record.fraction_of_ideal = kAbsent;
  if (!outcome.ok) return record;
  const ScenarioResult& result = *outcome.result;
  const aging::AgingReport& report = result.report;
  record.total_cells = report.total_cells;
  record.unused_cells = report.unused_cells;
  record.snm_mean = report.snm_stats.mean();
  record.snm_max = report.snm_stats.max();
  record.duty_mean = report.duty_stats.mean();
  record.fraction_optimal = report.fraction_optimal;
  if (result.lifetime.has_value()) {
    record.lifetime_years = result.lifetime->device_lifetime_years;
    record.improvement_over_worst =
        result.lifetime->improvement_over_worst_case;
    record.fraction_of_ideal = result.lifetime->fraction_of_ideal;
  }
  return record;
}

std::vector<SuiteRecord> make_suite_records(
    std::span<const SuiteOutcome> outcomes) {
  std::vector<SuiteRecord> records;
  records.reserve(outcomes.size());
  for (const SuiteOutcome& outcome : outcomes)
    records.push_back(make_suite_record(outcome));
  return records;
}

namespace {

/// The status token all emitters agree on ("ok" / "error" / "timeout").
const char* record_status(const SuiteRecord& record) {
  return record.timed_out ? "timeout" : record.ok ? "ok" : "error";
}

}  // namespace

void write_suite_csv(const std::string& path,
                     std::span<const SuiteRecord> records,
                     const SuiteSummaryInfo& info) {
  util::CsvWriter csv(
      path, {"file", "scenario", "status", "error", "total_cells",
             "unused_cells", "snm_mean_pct", "snm_max_pct", "duty_mean",
             "fraction_optimal", "device_lifetime_years",
             "improvement_over_worst_case", "fraction_of_ideal",
             "wall_seconds"});
  for (const SuiteRecord& record : records) {
    csv.add_row({record.path, record.name, record_status(record),
                 record.error,
                 record.ok ? std::to_string(record.total_cells) : "",
                 record.ok ? std::to_string(record.unused_cells) : "",
                 finite_num(record.snm_mean, 4), finite_num(record.snm_max, 4),
                 finite_num(record.duty_mean, 5),
                 finite_num(record.fraction_optimal, 5),
                 finite_num(record.lifetime_years, 4),
                 finite_num(record.improvement_over_worst, 4),
                 finite_num(record.fraction_of_ideal, 5),
                 info.include_timing
                     ? util::Table::num(record.wall_seconds, 3)
                     : ""});
  }
}

std::string suite_record_json(const SuiteRecord& record, bool include_timing) {
  std::ostringstream out;
  out << "{\"index\": " << record.index << ", \"file\": \""
      << util::json_escape(record.path) << "\", \"scenario\": \""
      << util::json_escape(record.name) << "\"";
  // Emitted only when known, so legacy summaries (and hand-written test
  // records) round-trip unchanged.
  if (!record.fingerprint.empty())
    out << ", \"fingerprint\": \"" << util::json_escape(record.fingerprint)
        << "\"";
  out << ", \"status\": \"" << record_status(record) << "\"";
  if (record.attempts > 1) out << ", \"attempts\": " << record.attempts;
  if (!record.ok)
    out << ", \"error\": \"" << util::json_escape(record.error) << "\"";
  out << ", \"total_cells\": "
      << (record.ok ? std::to_string(record.total_cells) : "null")
      << ", \"unused_cells\": "
      << (record.ok ? std::to_string(record.unused_cells) : "null")
      << ", \"snm_mean_pct\": " << json_number(finite_num(record.snm_mean, 4))
      << ", \"snm_max_pct\": " << json_number(finite_num(record.snm_max, 4))
      << ", \"duty_mean\": " << json_number(finite_num(record.duty_mean, 5))
      << ", \"fraction_optimal\": "
      << json_number(finite_num(record.fraction_optimal, 5))
      << ", \"device_lifetime_years\": "
      << json_number(finite_num(record.lifetime_years, 4))
      << ", \"improvement_over_worst_case\": "
      << json_number(finite_num(record.improvement_over_worst, 4))
      << ", \"fraction_of_ideal\": "
      << json_number(finite_num(record.fraction_of_ideal, 5));
  if (include_timing)
    out << ", \"wall_seconds\": " << util::Table::num(record.wall_seconds, 3);
  out << "}";
  return out.str();
}

SuiteRecord parse_suite_record(const util::JsonValue& entry,
                               bool* has_timing) {
  using util::JsonValue;
  SuiteRecord record;
  record.index = entry.at("index").as_uint();
  record.path = entry.at("file").as_string();
  record.name = entry.at("scenario").as_string();
  if (const JsonValue* fingerprint = entry.find("fingerprint"))
    record.fingerprint = fingerprint->as_string();
  const std::string& status = entry.at("status").as_string();
  if (status != "ok" && status != "error" && status != "timeout")
    throw std::invalid_argument("scenario status '" + status +
                                "' is not 'ok', 'error' or 'timeout'");
  record.ok = status == "ok";
  record.timed_out = status == "timeout";
  if (const JsonValue* attempts = entry.find("attempts")) {
    const std::uint64_t value = attempts->as_uint();
    if (value < 2 || value > 1'000'000)
      throw std::invalid_argument("scenario '" + record.name + "': attempts " +
                                  std::to_string(value) + " is not plausible");
    record.attempts = static_cast<unsigned>(value);
  }
  if (const JsonValue* error = entry.find("error"))
    record.error = error->as_string();
  if (record.ok) {
    record.total_cells = entry.at("total_cells").as_uint();
    record.unused_cells = entry.at("unused_cells").as_uint();
  } else if (!entry.at("total_cells").is_null() ||
             !entry.at("unused_cells").is_null()) {
    throw std::invalid_argument("failed scenario '" + record.name +
                                "' carries cell counts");
  }
  const auto number_or_null = [&entry](std::string_view key) {
    const JsonValue& value = entry.at(key);
    return value.is_null() ? kAbsent : value.as_number();
  };
  record.snm_mean = number_or_null("snm_mean_pct");
  record.snm_max = number_or_null("snm_max_pct");
  record.duty_mean = number_or_null("duty_mean");
  record.fraction_optimal = number_or_null("fraction_optimal");
  record.lifetime_years = number_or_null("device_lifetime_years");
  record.improvement_over_worst = number_or_null("improvement_over_worst_case");
  record.fraction_of_ideal = number_or_null("fraction_of_ideal");
  if (const JsonValue* wall = entry.find("wall_seconds")) {
    record.wall_seconds = wall->as_number();
    if (has_timing) *has_timing = true;
  } else if (has_timing) {
    *has_timing = false;
  }
  return record;
}

std::string suite_summary_json(std::span<const SuiteRecord> records,
                               const SuiteSummaryInfo& info) {
  std::ostringstream out;
  out << "{\n";
  if (!info.manifest_hash.empty())
    out << "  \"manifest\": {\"hash\": \""
        << util::json_escape(info.manifest_hash)
        << "\", \"scenarios\": " << info.total_scenarios << "},\n";
  if (info.shard.count > 1)
    out << "  \"shard\": {\"index\": " << info.shard.index
        << ", \"count\": " << info.shard.count << "},\n";
  if (!info.missing_indices.empty()) {
    // A partial aggregate names what is absent up front, so operators can
    // resubmit exactly the missing points.
    out << "  \"partial\": {\"missing\": " << info.missing_indices.size()
        << ", \"indices\": [";
    for (std::size_t i = 0; i < info.missing_indices.size(); ++i)
      out << (i == 0 ? "" : ", ") << info.missing_indices[i];
    out << "]},\n";
  }
  out << "  \"scenarios\": [\n";
  std::size_t failures = 0;
  std::size_t timeouts = 0;
  double total_seconds = 0.0;
  double min_lifetime = std::numeric_limits<double>::infinity();
  double max_lifetime = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SuiteRecord& record = records[i];
    total_seconds += record.wall_seconds;
    if (!record.ok) ++failures;
    if (record.timed_out) ++timeouts;
    if (std::isfinite(record.lifetime_years)) {
      min_lifetime = std::min(min_lifetime, record.lifetime_years);
      max_lifetime = std::max(max_lifetime, record.lifetime_years);
    }
    out << "    " << suite_record_json(record, info.include_timing)
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"summary\": {\"scenarios\": " << records.size()
      << ", \"failures\": " << failures;
  if (timeouts != 0) out << ", \"timeouts\": " << timeouts;
  if (info.include_timing)
    out << ", \"total_wall_seconds\": " << util::Table::num(total_seconds, 3);
  if (info.sim_cache.has_value() && info.include_timing)
    // Cache effectiveness is a run property, not a sweep property: it is
    // gated on include_timing so --omit-timing summaries stay
    // byte-comparable between cache-on and cache-off runs.
    out << ", \"sim_cache\": {\"hits\": " << info.sim_cache->hits
        << ", \"misses\": " << info.sim_cache->misses
        << ", \"inserts\": " << info.sim_cache->inserts
        << ", \"evictions\": " << info.sim_cache->evictions
        << ", \"entries\": " << info.sim_cache->entries
        << ", \"bytes_in_use\": " << info.sim_cache->bytes_in_use << "}";
  if (info.sim_store.has_value() && info.include_timing)
    // Same include_timing rule as sim_cache: disk-tier effectiveness is a
    // run property, and warm-store byte-compare gates run --omit-timing.
    out << ", \"sim_store\": {\"hits\": " << info.sim_store->hits
        << ", \"misses\": " << info.sim_store->misses
        << ", \"publishes\": " << info.sim_store->publishes
        << ", \"publish_failures\": " << info.sim_store->publish_failures
        << ", \"quarantined\": " << info.sim_store->quarantined
        << ", \"gc_evictions\": " << info.sim_store->gc_evictions << "}";
  if (std::isfinite(min_lifetime))
    out << ", \"min_device_lifetime_years\": "
        << util::Table::num(min_lifetime, 4)
        << ", \"max_device_lifetime_years\": "
        << util::Table::num(max_lifetime, 4);
  out << "}\n}\n";
  return out.str();
}

}  // namespace dnnlife::core
