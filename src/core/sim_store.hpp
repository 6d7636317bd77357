// The disk tier of content-addressed simulation reuse.
//
// SimCache (core/sim_cache.hpp) makes each distinct write stream simulate
// once *per process*; SimStore extends the same content addressing across
// processes, runs and machines. A store is a plain directory of entry
// files, one per simulation fingerprint:
//
//   DIR/<fingerprint>.simstate     committed entry (complete, checksummed)
//   DIR/<fingerprint>.tmp.<pid>.<n>  in-flight publish (never read)
//   DIR/quarantine/                entries that failed validation
//
// Entry files hold a versioned serialization of SimulationState —
// geometry, region tags, every per-segment DutyCycleTracker word, all
// explicit little-endian — framed by a magic string, a format version and
// a trailing content checksum. The framing makes lookup defensive by
// construction: a truncated file, a flipped byte or a stale format
// version fails validation, the offending file is moved into quarantine/
// (preserved for inspection, never re-probed) and the lookup degrades to
// a miss. Lookup never throws for bad entry content.
//
// Format v2 checksums with util::wordlane64, a four-lane word-parallel
// hash that still changes on any single flipped byte by construction, so
// reading and checking an entry runs near memory bandwidth. Every lookup
// reads, checksums and validates the whole entry; no decoded state is
// kept between lookups (that is SimCache's tier). A v1 entry (FNV-1a
// checksum) fails the version check: it is quarantined once, simulated
// again and republished as v2.
//
// Publication is crash-durable and atomic (util/fsio.hpp): serialize to a
// unique tmp name in the store directory, fsync, rename onto the final
// name, fsync the parent directory. Readers therefore only ever see
// complete entries, and concurrent publishers of one fingerprint — e.g.
// sibling shards pointed at a shared directory — converge on one valid
// file (renames of byte-identical content, in whatever order). Determinism
// makes the payloads identical: equal fingerprints produce equal tracker
// words.
//
// A byte budget (0 = unbounded) garbage-collects after publish: committed
// entries are evicted oldest-mtime-first until the store fits, never the
// entry just published. In-flight tmp files of live sibling processes are
// left alone.
//
// Like the memory cache, the store only stores and counts — single-flight
// (one simulation per fingerprint under concurrency) stays the
// SweepScheduler's job, and evaluating against a loaded state is
// byte-identical to simulating fresh because the aging fold consumes the
// same tracker bits either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/sim_cache.hpp"

namespace dnnlife::core {

struct SimStoreStats {
  std::uint64_t hits = 0;         ///< lookups satisfied from disk
  std::uint64_t misses = 0;       ///< lookups that found no usable entry
  std::uint64_t publishes = 0;    ///< entries durably written by this store
  std::uint64_t publish_failures = 0;  ///< publish attempts that hit I/O errors
  std::uint64_t quarantined = 0;  ///< invalid entries moved to quarantine/
  std::uint64_t gc_evictions = 0; ///< entries removed by the byte-budget GC
};

/// Thread-safe handle on one store directory. Multiple processes may
/// share a directory concurrently; every instance counts its own stats.
class SimStore {
 public:
  using StatePtr = std::shared_ptr<const SimulationState>;

  struct Options {
    std::string directory;
    /// Byte budget for committed entries; 0 = unbounded. Enforced after
    /// each publish, evicting oldest-mtime entries first.
    std::size_t capacity_bytes = 0;
  };

  /// Creates the directory (like mkdir -p) and probe-writes a file to
  /// validate it is writable up front; throws std::invalid_argument with
  /// an actionable message otherwise — a misconfigured store must fail at
  /// startup, not mid-sweep.
  explicit SimStore(Options options);

  SimStore(const SimStore&) = delete;
  SimStore& operator=(const SimStore&) = delete;

  /// The committed state for `fingerprint`, or nullptr on a miss. An
  /// entry that fails validation (truncated, corrupt, version mismatch)
  /// is quarantined and counts as a miss — never an exception.
  StatePtr lookup(const std::string& fingerprint);

  /// Durably publish `state` under `fingerprint` (tmp + fsync + rename +
  /// parent-dir fsync), then enforce the byte budget. Returns false —
  /// counting a publish failure — when the write fails; a full or failing
  /// disk degrades the store to pass-through instead of failing sweep
  /// points whose simulation already succeeded.
  bool publish(const std::string& fingerprint, const SimulationState& state);

  /// True when a committed entry file exists (existence only — content is
  /// validated by lookup).
  bool contains(const std::string& fingerprint) const;

  /// Committed-entry path for `fingerprint` (exposed for tests/tools).
  std::string entry_path(const std::string& fingerprint) const;

  const std::string& directory() const noexcept { return options_.directory; }
  std::size_t capacity_bytes() const noexcept {
    return options_.capacity_bytes;
  }
  SimStoreStats stats() const;

 private:
  std::string unique_suffix();
  void quarantine(const std::string& path);
  void collect_garbage(const std::string& keep_filename);

  Options options_;
  mutable std::mutex mutex_;  ///< guards stats_
  SimStoreStats stats_;
};

/// The store's on-disk entry encoding (exposed for tests and tools):
/// magic + version + payload + trailing checksum, all little-endian.
std::string serialize_simulation_state(const SimulationState& state);

/// Inverse of serialize_simulation_state. Throws std::invalid_argument
/// prefixed with `label` on any damage: wrong magic, unsupported version,
/// checksum mismatch, truncation, trailing garbage, or invariant
/// violations (region partition, tracker/geometry cell-count agreement).
SimStore::StatePtr deserialize_simulation_state(std::string_view bytes,
                                                const std::string& label);

}  // namespace dnnlife::core
