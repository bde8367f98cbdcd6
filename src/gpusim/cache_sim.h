// Set-associative LRU cache simulator used as the device's L2.
//
// Lines are opaque 64-bit ids: host addresses shifted by the line size in raw
// mode, first-touch granule ids (GranuleTable) in deterministic mode. Either
// way the mapping from data to sets is as arbitrary as a real allocator's,
// and only hit/miss behaviour matters.
#ifndef SRC_GPUSIM_CACHE_SIM_H_
#define SRC_GPUSIM_CACHE_SIM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace minuet {

class CacheSim {
 public:
  // capacity_bytes must be a multiple of line_bytes * ways.
  CacheSim(size_t capacity_bytes, int ways, int line_bytes);

  // Touches the line containing byte address `addr`. Returns true on hit.
  bool Access(uint64_t addr) { return AccessLine(addr >> line_shift_); }

  // Touches line `line` (= addr >> log2(line_bytes)) directly. The device's
  // access loops already hold line numbers — deterministic mode derives them
  // from remapped granule ids — so this skips the round trip through a byte
  // address. Identical hit/miss behaviour to Access(). `line` must not be
  // UINT64_MAX, the empty-way sentinel (no shifted address or granule id can
  // reach it).
  bool AccessLine(uint64_t line);

  // Drops all cached lines and resets hit/miss counters.
  void Flush();
  void ResetCounters();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double HitRatio() const;

  int line_bytes() const { return line_bytes_; }
  size_t num_sets() const { return num_sets_; }
  int ways() const { return ways_; }

 private:
  // Tag of a way that holds no line.
  static constexpr uint64_t kEmpty = UINT64_MAX;

  size_t num_sets_;
  // num_sets_ - 1 when the set count is a power of two, else 0. The mixed
  // tag's set index is then a mask instead of a 64-bit modulo — same value,
  // since x % 2^k == x & (2^k - 1) for unsigned x — which matters because
  // set selection runs once per simulated line transaction.
  size_t set_mask_ = 0;
  int ways_;
  int line_bytes_;
  int line_shift_;
  // num_sets_ x ways_ line tags, row-major. Each set is kept in
  // most-recently-used order, empty ways (kEmpty) at its tail, so the last
  // way is always the victim: an empty way while one exists, else the LRU
  // line. This is exactly stamp-based LRU without the stamps.
  std::vector<uint64_t> tags_;
  // Unused. Keeps sizeof(CacheSim) — and with it sizeof(Device) — what it was
  // when LRU kept a clock here: deterministic addressing numbers granules in
  // host first-touch order, so a different malloc request size shifts
  // simulated statistics (ROADMAP item 3).
  [[maybe_unused]] uint64_t layout_pin_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace minuet

#endif  // SRC_GPUSIM_CACHE_SIM_H_
