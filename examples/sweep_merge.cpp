// Shard-summary merge tool: N sweep-runner shard summaries → the one
// aggregate a single-machine run would have produced.
//
//   example_sweep_merge shard1.json shard2.json ... [flags]
//
// Flags:
//   --csv=PATH       write the merged per-scenario summary as CSV
//   --json=PATH      write the merged summary + aggregate as JSON
//   --allow-partial  accept an incomplete shard set (missing shards, or
//                    journals of killed runs): the merged summary carries a
//                    "partial" header listing every missing global index,
//                    the missing count is printed, and the tool exits 3 so
//                    schedulers can tell "partial" from "complete"
//
// Inputs may be summary JSON files or sweep-runner journals
// (--journal=PATH files of crashed shards); journals are detected by their
// header line and lifted into the summary the shard would have written so
// far. Shard files may be given in any order; the tool sorts them by shard
// index. It refuses to merge summaries that do not form exactly one sweep:
// different manifest hashes or totals, duplicate shards, and overlapping
// scenario covers all fail with the offending file named — and, without
// --allow-partial, so do missing shards and incomplete covers. When the
// shards were written with --omit-timing, the merged CSV/JSON is
// byte-identical to the unsharded run's (wall clocks are the only
// nondeterministic field; CI diffs the two).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/sweep_journal.hpp"
#include "core/sweep_merge.hpp"
#include "util/cli.hpp"
#include "util/fsio.hpp"

namespace {

using dnnlife::util::read_file;

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  std::string csv_path;
  std::string json_path;
  core::MergeOptions merge_options;
  util::FlagTable flags("example_sweep_merge",
                        "<shard.json | shard.journal>...", SIZE_MAX);
  flags.add(util::text_flag("csv", "PATH", csv_path, "merged summary as CSV"))
      .add(util::text_flag("json", "PATH", json_path, "merged summary as JSON"))
      .add(util::switch_flag("allow-partial", merge_options.allow_partial,
                             "accept an incomplete shard set (exit 3)"));
  if (!flags.parse(argc, argv)) return 1;
  const std::vector<std::string>& inputs = flags.positionals();
  if (inputs.empty()) {
    std::cerr << flags.usage();
    return 1;
  }

  core::SuiteSummary merged;
  try {
    std::vector<core::SuiteSummary> shards;
    shards.reserve(inputs.size());
    for (const std::string& path : inputs) {
      const std::string text = read_file(path);
      if (core::looks_like_sweep_journal(text)) {
        const core::SweepJournalContents journal =
            core::parse_sweep_journal(text, path);
        if (journal.truncated_tail)
          std::cerr << "note: journal '" << path
                    << "' ends in a truncated line (crash debris); "
                       "dropping it\n";
        shards.push_back(core::suite_summary_from_journal(journal, path));
      } else {
        shards.push_back(core::parse_suite_summary(text, path));
      }
    }
    merged = core::merge_suite_summaries(std::move(shards), merge_options);
  } catch (const std::exception& error) {
    std::cerr << "merge error: " << error.what() << "\n";
    return 1;
  }

  std::size_t failures = 0;
  for (const core::SuiteRecord& record : merged.records)
    if (!record.ok) ++failures;
  std::cout << "merged " << inputs.size() << " shard"
            << (inputs.size() == 1 ? "" : "s") << ": "
            << merged.records.size() << " scenario"
            << (merged.records.size() == 1 ? "" : "s") << ", " << failures
            << " failure" << (failures == 1 ? "" : "s") << " (manifest "
            << merged.info.manifest_hash << ")\n";
  const std::vector<std::size_t>& missing = merged.info.missing_indices;
  if (!missing.empty()) {
    std::cout << "partial merge: " << missing.size() << " of "
              << merged.info.total_scenarios
              << " scenarios missing (indices";
    // Name enough indices to resubmit from; elide the middle of huge gaps.
    const std::size_t shown = std::min<std::size_t>(missing.size(), 20);
    for (std::size_t i = 0; i < shown; ++i) std::cout << " " << missing[i];
    if (shown < missing.size())
      std::cout << " ... +" << missing.size() - shown << " more";
    std::cout << ")\n";
  }

  if (!csv_path.empty()) {
    core::write_suite_csv(csv_path, merged.records, merged.info);
    std::cout << "merged summary written to " << csv_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot open '" << json_path << "' for writing\n";
      return 1;
    }
    json << core::suite_summary_json(merged.records, merged.info);
    std::cout << "merged summary written to " << json_path << "\n";
  }
  return missing.empty() ? 0 : 3;
}
