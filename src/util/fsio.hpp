// Crash-durable file publication.
//
// Two subsystems persist state that must survive power loss: the sweep
// journal (core/sweep_journal.cpp) and the disk simulation store
// (core/sim_store.cpp). Both use the same protocol to publish a file
// atomically and durably:
//
//   1. write the full contents to a unique tmp name in the target
//      directory (same filesystem, so the rename below is atomic),
//   2. fflush + fsync the tmp file (bytes reach the device, not just the
//      page cache),
//   3. rename(tmp, final) — readers see either the old entry or the
//      complete new one, never a torn write,
//   4. fsync the *parent directory* — the rename itself is a directory
//      mutation, and without this step a power loss can revert the
//      directory entry to the pre-rename state even though every byte of
//      the file was fsynced.
//
// On platforms without fsync (no <unistd.h>) the sync steps degrade to
// no-ops: still atomic against crashes of the process, just not against
// power loss.
//
// The read side is read_file: every whole-file slurp in the framework goes
// through it, so an I/O error mid-read is an error and never a silently
// truncated document. It sizes its buffer once from the file's size and
// then drains to EOF, so a store entry of megabytes costs one allocation
// and one pass, and a file that grew meanwhile is still read in full.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

#if __has_include(<unistd.h>)
#define DNNLIFE_HAVE_FSYNC 1
#endif

namespace dnnlife::util {

/// fsync a stdio stream's file descriptor (caller fflushes first).
/// Best-effort: sync failures are not diagnosable into anything
/// actionable here, and a no-op without fsync support.
void fsync_stream(std::FILE* file) noexcept;

/// Make a directory-entry mutation (rename/create/remove of `path`)
/// durable by fsyncing the directory that contains `path`. Best-effort:
/// some filesystems reject directory fsync; errors are swallowed.
void fsync_parent_directory(const std::string& path) noexcept;

/// Steps 1–4 above in one call: write `contents` to `tmp_path`, flush and
/// fsync it, rename it onto `final_path`, fsync the parent directory.
/// Throws std::runtime_error naming the path on write/rename failure (the
/// tmp file is removed best-effort before throwing).
void write_file_durable(const std::string& tmp_path,
                        const std::string& final_path,
                        std::string_view contents);

/// Slurp a whole file; throws std::invalid_argument naming the path —
/// both when it cannot be opened and when the stream goes bad mid-read
/// (e.g. EISDIR for a directory). An rdbuf-slurp returns whatever prefix
/// was read before an I/O error, handing callers a silently truncated
/// document (half a scenario, a journal cut at a record boundary) as if
/// it were complete.
std::string read_file(const std::string& path);

}  // namespace dnnlife::util
