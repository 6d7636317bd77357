// Content-addressed simulation reuse: the duty-state cache behind
// cross-point sweep acceleration.
//
// Most sweep axes (temperature_c, vdd, activity_scale, aging_model,
// aging_model_params.*, lifetime.*) never change what the simulator
// writes — only how the aging models evaluate the accumulated duty-cycle
// state. A 3-temps x 2-vdd x 2-models grid over one workload therefore
// simulates the same write stream 12 times. SimCache eliminates that
// redundancy: committed per-environment-segment DutyCycleTracker state is
// keyed by core::simulation_fingerprint (a canonical hash over exactly
// the stream-affecting ScenarioSpec fields; see core/scenario.hpp) and
// shared immutably across points via shared_ptr, so on a hit run_scenario
// skips simulation entirely and only the aging-report pipeline runs.
//
// Concurrency and safety:
//  - Entries are immutable after insert; lookup hands out
//    shared_ptr<const SimulationState>, so an entry evicted while a point
//    is still evaluating against it stays alive until the last reader
//    drops it (refcounted eviction safety).
//  - The cache itself is a mutex-protected LRU bounded by a byte budget
//    (--sim-cache-mb); insert is first-wins, so concurrent computers of
//    the same fingerprint converge on one canonical state.
//  - Single-flight (one *simulation* per fingerprint under concurrency)
//    is the SweepScheduler's job — its fingerprint claims park
//    same-fingerprint siblings behind the first claimant; the cache only
//    stores and counts.
//
// Determinism: evaluating against cached tracker state is byte-identical
// to a cache-off run because the aging fold consumes the same tracker
// bits either way (make_aging_report / make_lifetime_report take
// EnvironmentSegmentViews of shared or owned trackers alike).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aging/duty_cycle.hpp"
#include "sim/memory_geometry.hpp"

namespace dnnlife::core {

/// The committed, immutable result of simulating one scenario's write
/// stream: the per-environment-segment duty-cycle accumulators plus the
/// geometry/region shape needed to evaluate them. Environment values are
/// deliberately absent — they are evaluation-time inputs re-attached from
/// the consuming spec's phases (equal fingerprints guarantee an equal
/// segment partition, not equal environments).
struct SimulationState {
  sim::MemoryGeometry geometry;
  /// Region tags of every tracker (also used to rebuild the all-dormant
  /// zero tracker, which is not stored).
  std::vector<aging::CellRegion> regions;
  /// One tracker per run of consecutive equal-environment active phases,
  /// in phase order; empty when every phase is dormant.
  std::vector<aging::DutyCycleTracker> segment_trackers;

  /// Approximate heap footprint, used for the cache's byte budget.
  std::size_t bytes() const;
};

struct SimCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;        ///< currently resident
  std::uint64_t bytes_in_use = 0;   ///< currently resident
};

/// Thread-safe LRU cache of SimulationState keyed by simulation
/// fingerprint. All methods may be called concurrently.
class SimCache {
 public:
  using StatePtr = std::shared_ptr<const SimulationState>;

  explicit SimCache(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  SimCache(const SimCache&) = delete;
  SimCache& operator=(const SimCache&) = delete;

  /// The cached state for `fingerprint`, or nullptr. Counts a hit or a
  /// miss and freshens the entry's LRU position.
  StatePtr lookup(const std::string& fingerprint);

  /// Insert `state` under `fingerprint` and return the canonical entry:
  /// first-wins, so when another thread raced the same fingerprint in,
  /// the earlier state is returned and `state` is dropped. Inserting may
  /// evict least-recently-used entries past the byte budget — including,
  /// for a state larger than the whole budget, the new entry itself (the
  /// returned pointer stays valid either way).
  StatePtr insert(const std::string& fingerprint, StatePtr state);

  bool contains(const std::string& fingerprint) const;

  std::size_t capacity_bytes() const noexcept { return capacity_bytes_; }
  SimCacheStats stats() const;

 private:
  struct Entry {
    std::string fingerprint;
    StatePtr state;
    std::size_t bytes = 0;
  };

  const std::size_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_in_use_ = 0;
  SimCacheStats stats_;
};

}  // namespace dnnlife::core
