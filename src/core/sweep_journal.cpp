#include "core/sweep_journal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/fsio.hpp"
#include "util/json.hpp"

#ifdef DNNLIFE_HAVE_FSYNC  // defined by util/fsio.hpp when <unistd.h> exists
#include <unistd.h>
#endif

namespace dnnlife::core {

namespace {

constexpr int kJournalVersion = 1;

std::string header_line(const SweepJournalHeader& header) {
  std::ostringstream out;
  out << "{\"sweep_journal\": {\"version\": " << kJournalVersion
      << ", \"manifest\": {\"hash\": \"" << header.manifest_hash
      << "\", \"scenarios\": " << header.total_scenarios
      << "}, \"shard\": {\"index\": " << header.shard.index
      << ", \"count\": " << header.shard.count << "}, \"include_timing\": "
      << (header.include_timing ? "true" : "false") << "}}";
  return out.str();
}

SweepJournalHeader parse_header_line(std::string_view line) {
  const util::JsonValue root = util::JsonValue::parse(line);
  const util::JsonValue& doc = root.at("sweep_journal");
  const std::uint64_t version = doc.at("version").as_uint();
  if (version != kJournalVersion)
    throw std::invalid_argument("journal version " + std::to_string(version) +
                                " is not supported (this build writes v" +
                                std::to_string(kJournalVersion) + ")");
  SweepJournalHeader header;
  const util::JsonValue& manifest = doc.at("manifest");
  header.manifest_hash = manifest.at("hash").as_string();
  header.total_scenarios =
      static_cast<std::size_t>(manifest.at("scenarios").as_uint());
  const util::JsonValue& shard = doc.at("shard");
  header.shard = SuiteShard::checked(shard.at("index").as_uint(),
                                     shard.at("count").as_uint());
  header.include_timing = doc.at("include_timing").as_bool();
  return header;
}

bool index_in_shard(std::size_t index, const SweepJournalHeader& header) {
  return index < header.total_scenarios && header.shard.contains(index);
}

/// Split into lines. A final element is produced for a trailing fragment
/// without '\n'; `ends_with_newline` reports whether the text closed its
/// last line.
std::vector<std::string_view> split_lines(std::string_view text,
                                          bool& ends_with_newline) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t newline = text.find('\n', start);
    if (newline == std::string_view::npos) {
      lines.push_back(text.substr(start));
      ends_with_newline = false;
      return lines;
    }
    lines.push_back(text.substr(start, newline - start));
    start = newline + 1;
  }
  ends_with_newline = true;
  return lines;
}

std::string describe(const std::string& label) {
  return label.empty() ? std::string("<sweep journal>")
                       : "journal '" + label + "'";
}

}  // namespace

bool looks_like_sweep_journal(std::string_view text) {
  const std::size_t newline = text.find('\n');
  const std::string_view first =
      newline == std::string_view::npos ? text : text.substr(0, newline);
  try {
    return util::JsonValue::parse(first).find("sweep_journal") != nullptr;
  } catch (const std::exception&) {
    return false;
  }
}

SweepJournalContents parse_sweep_journal(std::string_view text,
                                         const std::string& label) {
  SweepJournalContents contents;
  bool ends_with_newline = false;
  const std::vector<std::string_view> lines =
      split_lines(text, ends_with_newline);
  if (lines.empty())
    throw std::invalid_argument(describe(label) + ": file is empty");
  try {
    contents.header = parse_header_line(lines[0]);
  } catch (const std::exception& error) {
    throw std::invalid_argument(describe(label) +
                                ": not a sweep journal (header line: " +
                                error.what() + ")");
  }
  std::set<std::size_t> seen;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    if (lines[i].empty()) {
      if (last) break;  // a trailing blank line is harmless
      throw std::invalid_argument(describe(label) + ": line " +
                                  std::to_string(i + 1) + " is empty");
    }
    SuiteRecord record;
    bool has_timing = false;
    try {
      record = parse_suite_record(util::JsonValue::parse(lines[i]),
                                  &has_timing);
    } catch (const std::exception& error) {
      // The one write a kill can tear is the final line; everything before
      // it was flushed whole, so mid-file damage is real corruption.
      if (last && !ends_with_newline) {
        contents.truncated_tail = true;
        return contents;
      }
      throw std::invalid_argument(describe(label) + ": line " +
                                  std::to_string(i + 1) +
                                  " is corrupt: " + error.what());
    }
    if (has_timing != contents.header.include_timing)
      throw std::invalid_argument(
          describe(label) + ": line " + std::to_string(i + 1) +
          (has_timing ? " carries" : " is missing") +
          " wall_seconds, contradicting the header's timing mode");
    if (!index_in_shard(record.index, contents.header))
      throw std::invalid_argument(
          describe(label) + ": line " + std::to_string(i + 1) + ": index " +
          std::to_string(record.index) + " does not belong to shard " +
          std::to_string(contents.header.shard.index) + "/" +
          std::to_string(contents.header.shard.count) + " of " +
          std::to_string(contents.header.total_scenarios) + " scenarios");
    if (!seen.insert(record.index).second)
      throw std::invalid_argument(describe(label) + ": line " +
                                  std::to_string(i + 1) + ": index " +
                                  std::to_string(record.index) +
                                  " appears twice");
    contents.records.push_back(std::move(record));
  }
  return contents;
}

SweepJournalContents read_sweep_journal(const std::string& path) {
  return parse_sweep_journal(util::read_file(path), path);
}

// ---- the writable journal ----------------------------------------------------

struct SweepJournal::State {
  std::string path;
  SweepJournalHeader header;
  std::vector<SuiteRecord> replayed;
  bool truncated_tail = false;
  std::mutex mutex;
  std::set<std::size_t> completed;
  std::FILE* file = nullptr;

  ~State() {
    if (file != nullptr) std::fclose(file);
  }

  void write_line(const std::string& line) {
    const std::string buffer = line + "\n";
    if (std::fwrite(buffer.data(), 1, buffer.size(), file) != buffer.size() ||
        std::fflush(file) != 0)
      throw std::runtime_error("journal '" + path +
                               "': write failed: " + std::strerror(errno));
    // fflush hands the record to the kernel (enough to survive a SIGKILL);
    // fsync pushes it to the device, so even power loss keeps the prefix.
    util::fsync_stream(file);
  }
};

SweepJournal::SweepJournal(SweepJournal&& other) noexcept = default;
SweepJournal& SweepJournal::operator=(SweepJournal&& other) noexcept = default;
SweepJournal::~SweepJournal() = default;

SweepJournal SweepJournal::create(const std::string& path,
                                  SweepJournalHeader header) {
  SuiteShard::checked(header.shard.index, header.shard.count);
  SweepJournal journal;
  journal.state_ = std::make_unique<State>();
  State& state = *journal.state_;
  state.path = path;
  state.header = std::move(header);
  state.file = std::fopen(path.c_str(), "wb");
  if (state.file == nullptr)
    throw std::invalid_argument("cannot open journal '" + path +
                                "' for writing: " + std::strerror(errno));
  state.write_line(header_line(state.header));
  return journal;
}

SweepJournal SweepJournal::resume(const std::string& path,
                                  const SweepJournalHeader& expected) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(path, ec) || fs::file_size(path, ec) == 0)
    return create(path, expected);  // nothing journaled yet: fresh start

  // A read error must not pass for a torn tail: compaction below would
  // rewrite the file down to the prefix read so far.
  const std::string text = util::read_file(path);

  // A process killed during creation can leave a torn header: exactly one
  // unparseable line with no closing newline. Only that shape restarts
  // fresh — a multi-line file that fails to parse is someone else's data,
  // and overwriting it would destroy it.
  if (text.find('\n') == std::string::npos &&
      !looks_like_sweep_journal(text)) {
    return create(path, expected);
  }

  SweepJournalContents contents = parse_sweep_journal(text, path);
  const SweepJournalHeader& found = contents.header;
  if (found.manifest_hash != expected.manifest_hash ||
      found.total_scenarios != expected.total_scenarios)
    throw std::invalid_argument(
        "journal '" + path + "' belongs to manifest " + found.manifest_hash +
        " (" + std::to_string(found.total_scenarios) +
        " scenarios); this run is manifest " + expected.manifest_hash + " (" +
        std::to_string(expected.total_scenarios) +
        ") — pass a fresh --journal path");
  if (found.shard.index != expected.shard.index ||
      found.shard.count != expected.shard.count)
    throw std::invalid_argument(
        "journal '" + path + "' was written by shard " +
        std::to_string(found.shard.index) + "/" +
        std::to_string(found.shard.count) + "; this run is shard " +
        std::to_string(expected.shard.index) + "/" +
        std::to_string(expected.shard.count));
  if (found.include_timing != expected.include_timing)
    throw std::invalid_argument(
        "journal '" + path + "' was written " +
        (found.include_timing ? "with" : "without") +
        " wall-clock fields; this run is " +
        (expected.include_timing ? "with" : "without") +
        " them (--omit-timing must match across resume)");

  // Compact the valid prefix: crash debris (a torn final line) must never
  // sit between the recovered records and fresh appends. The tmp file is
  // already on the device when the scope closes — write_line fsyncs every
  // record — so the remaining durability step is the rename itself: a
  // directory mutation, made durable by fsyncing the parent directory.
  // Without that, power loss after resume could revert the directory
  // entry to the pre-compaction file despite every record having been
  // fsynced, silently resurrecting the torn tail mid-journal.
  const std::string tmp = path + ".tmp";
  {
    SweepJournal rewrite = create(tmp, expected);
    for (const SuiteRecord& record : contents.records) rewrite.append(record);
  }
  fs::rename(tmp, path);
  util::fsync_parent_directory(path);

  SweepJournal journal;
  journal.state_ = std::make_unique<State>();
  State& state = *journal.state_;
  state.path = path;
  state.header = expected;
  state.truncated_tail = contents.truncated_tail;
  for (const SuiteRecord& record : contents.records)
    state.completed.insert(record.index);
  state.replayed = std::move(contents.records);
  state.file = std::fopen(path.c_str(), "ab");
  if (state.file == nullptr)
    throw std::invalid_argument("cannot reopen journal '" + path +
                                "' for append: " + std::strerror(errno));
  return journal;
}

const std::string& SweepJournal::path() const noexcept {
  return state_->path;
}

const SweepJournalHeader& SweepJournal::header() const noexcept {
  return state_->header;
}

const std::vector<SuiteRecord>& SweepJournal::replayed() const noexcept {
  return state_->replayed;
}

bool SweepJournal::recovered_truncated_tail() const noexcept {
  return state_->truncated_tail;
}

bool SweepJournal::completed(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->completed.count(index) != 0;
}

std::vector<std::size_t> SweepJournal::completed_indices() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return {state_->completed.begin(), state_->completed.end()};
}

void SweepJournal::append(const SuiteRecord& record) {
  State& state = *state_;
  if (!index_in_shard(record.index, state.header))
    throw std::invalid_argument(
        "journal '" + state.path + "': index " +
        std::to_string(record.index) + " does not belong to shard " +
        std::to_string(state.header.shard.index) + "/" +
        std::to_string(state.header.shard.count));
  const std::string line =
      suite_record_json(record, state.header.include_timing);
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.completed.insert(record.index).second)
    throw std::invalid_argument("journal '" + state.path + "': index " +
                                std::to_string(record.index) +
                                " is already journaled");
  state.write_line(line);
}

std::vector<SuiteRecord> resumed_suite_records(
    const SweepJournal& journal, std::span<const SuiteOutcome> fresh) {
  std::vector<SuiteRecord> records = journal.replayed();
  std::set<std::size_t> replayed_indices;
  for (const SuiteRecord& record : records)
    replayed_indices.insert(record.index);
  for (const SuiteOutcome& outcome : fresh) {
    if (replayed_indices.count(outcome.index) != 0)
      throw std::logic_error("index " + std::to_string(outcome.index) +
                             " was both replayed from the journal and "
                             "executed fresh");
    records.push_back(make_suite_record(outcome));
  }
  // Deterministic index order: exactly what an uninterrupted run emits.
  std::sort(records.begin(), records.end(),
            [](const SuiteRecord& a, const SuiteRecord& b) {
              return a.index < b.index;
            });
  return records;
}

}  // namespace dnnlife::core
