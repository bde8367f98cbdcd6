#include "src/gpusim/cache_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace minuet {
namespace {

// Straight-line reference for the golden-sequence tests below: the documented
// model (multiplicative tag mix, modulo set selection, LRU by stamp) with no
// fast paths. CacheSim (MRU-ordered tag-only sets, power-of-two mask path)
// must reproduce its hit/miss decisions access for access. This is the only
// copy of the stamp algorithm.
class ReferenceLru {
 public:
  ReferenceLru(size_t capacity_bytes, int ways, int line_bytes)
      : num_sets_(capacity_bytes / static_cast<size_t>(line_bytes) /
                  static_cast<size_t>(ways)),
        ways_(ways),
        storage_(num_sets_ * static_cast<size_t>(ways)) {}

  // Returns true on hit. On a hit, *depth (if given) receives the line's LRU
  // rank in its set: 0 for the most recently used line, ways - 1 for the
  // least. Misses leave it untouched.
  bool AccessLine(uint64_t line, int* depth = nullptr) {
    const size_t set =
        static_cast<size_t>((line * 0x9e3779b97f4a7c15ULL) % num_sets_);
    Way* base = &storage_[set * static_cast<size_t>(ways_)];
    ++clock_;
    int victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (int w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line) {
        if (depth != nullptr) {
          *depth = 0;
          for (int o = 0; o < ways_; ++o) {
            *depth += base[o].valid && base[o].stamp > base[w].stamp ? 1 : 0;
          }
        }
        base[w].stamp = clock_;
        ++hits_;
        return true;
      }
      const uint64_t stamp = base[w].valid ? base[w].stamp : 0;
      if (stamp < oldest) {
        oldest = stamp;
        victim = w;
      }
    }
    base[victim] = Way{line, clock_, true};
    ++misses_;
    return false;
  }

  void Flush() {
    std::fill(storage_.begin(), storage_.end(), Way{});
    ResetCounters();
  }
  void ResetCounters() {
    hits_ = 0;
    misses_ = 0;
  }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Way {
    uint64_t tag = 0;
    uint64_t stamp = 0;
    bool valid = false;
  };
  size_t num_sets_;
  int ways_;
  std::vector<Way> storage_;
  uint64_t clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Replays `lines` through both models, asserting every decision and, at the
// end, the counters agree.
void ExpectSameDecisions(CacheSim& cache, ReferenceLru& ref,
                         const std::vector<uint64_t>& lines) {
  for (size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(cache.AccessLine(lines[i]), ref.AccessLine(lines[i]))
        << "diverged at access " << i << " (line " << lines[i] << ")";
  }
  EXPECT_EQ(cache.hits(), ref.hits());
  EXPECT_EQ(cache.misses(), ref.misses());
}

// A deterministic access recording: pseudorandom line touches with enough
// locality (a small working window revisited between jumps) that both hits
// and misses occur in quantity.
std::vector<uint64_t> RecordedLineSequence(size_t count, uint64_t line_space) {
  std::vector<uint64_t> lines;
  lines.reserve(count);
  uint64_t state = 0x2545F4914F6CDD1Dull;
  uint64_t window = 0;
  for (size_t i = 0; i < count; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    if (i % 64 == 0) {
      window = state % line_space;
    }
    // Three of four touches stay near the window base; the rest jump.
    const uint64_t line =
        (state & 3) != 0 ? (window + (state % 97)) % line_space : state % line_space;
    lines.push_back(line);
  }
  return lines;
}

TEST(CacheSimTest, FirstAccessMissesSecondHits) {
  CacheSim cache(1 << 20, 16, 128);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(64));  // same 128B line
  EXPECT_FALSE(cache.Access(128));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheSimTest, HitRatio) {
  CacheSim cache(1 << 20, 16, 128);
  EXPECT_EQ(cache.HitRatio(), 0.0);
  cache.Access(0);
  cache.Access(0);
  cache.Access(0);
  cache.Access(0);
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.75);
}

TEST(CacheSimTest, WorkingSetWithinCapacityAlwaysHitsOnSecondPass) {
  // 64 KiB cache, 16 KiB working set: after one pass everything is resident.
  CacheSim cache(64 << 10, 16, 128);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < (16 << 10); addr += 128) {
      cache.Access(addr);
    }
  }
  EXPECT_EQ(cache.misses(), 128u);  // only the first pass
  EXPECT_EQ(cache.hits(), 128u);
}

TEST(CacheSimTest, WorkingSetBeyondCapacityThrashes) {
  // Direct-ish scan of 4x the capacity twice: second pass still misses
  // (LRU on a streaming pattern keeps evicting what the next pass needs).
  CacheSim cache(16 << 10, 4, 128);
  size_t span = 64 << 10;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < span; addr += 128) {
      cache.Access(addr);
    }
  }
  EXPECT_LT(cache.HitRatio(), 0.05);
}

TEST(CacheSimTest, LruEvictsOldest) {
  // 1 set x 2 ways x 128B lines = 256 bytes. Note set selection mixes the
  // tag, but with exactly one set every line maps there.
  CacheSim cache(256, 2, 128);
  EXPECT_EQ(cache.num_sets(), 1u);
  EXPECT_FALSE(cache.Access(0));      // A miss -> {A}
  EXPECT_FALSE(cache.Access(128));    // B miss -> {A, B}
  EXPECT_TRUE(cache.Access(0));       // A hit  -> B is LRU
  EXPECT_FALSE(cache.Access(256));    // C miss, evicts B -> {A, C}
  EXPECT_TRUE(cache.Access(0));       // A still resident
  EXPECT_FALSE(cache.Access(128));    // B was evicted
}

TEST(CacheSimTest, FlushClearsEverything) {
  CacheSim cache(1 << 16, 8, 128);
  cache.Access(0);
  cache.Access(0);
  cache.Flush();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.Access(0));
}

TEST(CacheSimTest, MaskFastPathMatchesModuloReferenceSequence) {
  // 4 MiB / 16 ways / 128 B lines = 2048 sets: a power of two, so CacheSim
  // takes the mask path. The reference always computes the modulo. Every
  // individual hit/miss decision must agree — the golden-sequence guarantee
  // the host-performance work rests on.
  CacheSim cache(4 << 20, 16, 128);
  ASSERT_EQ(cache.num_sets(), 2048u);
  ReferenceLru ref(4 << 20, 16, 128);
  const std::vector<uint64_t> lines = RecordedLineSequence(200000, 100000);
  ExpectSameDecisions(cache, ref, lines);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(CacheSimTest, ModuloPathMatchesReferenceSequence) {
  // The RTX 3090 geometry (6 MiB -> 3072 sets) is not a power of two and
  // stays on the modulo path; it must agree with the reference as well.
  CacheSim cache(6 << 20, 16, 128);
  ASSERT_EQ(cache.num_sets(), 3072u);
  ReferenceLru ref(6 << 20, 16, 128);
  const std::vector<uint64_t> lines = RecordedLineSequence(200000, 150000);
  ExpectSameDecisions(cache, ref, lines);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(CacheSimTest, A100GeometryMatchesReferenceSequence) {
  // The A100 preset's 40 MiB / 16 ways / 128 B lines = 20480 sets is not a
  // power of two either, so it takes the modulo path too.
  CacheSim cache(40 << 20, 16, 128);
  ASSERT_EQ(cache.num_sets(), 20480u);
  ReferenceLru ref(40 << 20, 16, 128);
  ExpectSameDecisions(cache, ref, RecordedLineSequence(600000, 2000000));
  EXPECT_GT(cache.hits(), 0u);
  // More misses than ways in the whole cache: sets fill and evict.
  EXPECT_GT(cache.misses(), 20480u * 16u);
}

TEST(CacheSimTest, LowAssociativityMatchesReferenceSequence) {
  // Direct-mapped and 2/4-way sets exercise the shortest shifts: a 1-way
  // miss moves nothing, and every 1-way hit is at way 0.
  for (int ways : {1, 2, 4}) {
    SCOPED_TRACE(ways);
    const size_t capacity = size_t{96} * static_cast<size_t>(ways) * 128;  // 96 sets
    CacheSim cache(capacity, ways, 128);
    ReferenceLru ref(capacity, ways, 128);
    ExpectSameDecisions(cache, ref, RecordedLineSequence(100000, 3000));
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), 0u);
  }
}

TEST(CacheSimTest, HitsAtEveryReuseDepthMatchReference) {
  // 4 sets x 16 ways over a pool of ~20 lines per set: per-set reuse depths
  // spread over every way position, plus misses beyond the 16th. The
  // reference reports each hit's LRU rank, so coverage is checked, not hoped
  // for.
  constexpr int kWays = 16;
  constexpr size_t kCapacity = 4 * kWays * 128;
  CacheSim cache(kCapacity, kWays, 128);
  ReferenceLru ref(kCapacity, kWays, 128);
  std::vector<uint64_t> depth_hits(kWays, 0);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 200000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const uint64_t line = state % 80;
    int depth = -1;
    const bool hit = ref.AccessLine(line, &depth);
    ASSERT_EQ(cache.AccessLine(line), hit) << "diverged at access " << i;
    if (hit) {
      ++depth_hits[static_cast<size_t>(depth)];
    }
  }
  for (int d = 0; d < kWays; ++d) {
    EXPECT_GT(depth_hits[static_cast<size_t>(d)], 0u) << "no hit at depth " << d;
  }
  EXPECT_EQ(cache.hits(), ref.hits());
  EXPECT_EQ(cache.misses(), ref.misses());
  EXPECT_GT(cache.misses(), 0u);
}

TEST(CacheSimTest, LineZeroIsAnOrdinaryTag) {
  // The stamp model needed a valid flag because a zeroed way's tag is 0;
  // CacheSim's empty sentinel is UINT64_MAX instead, so line 0 must behave
  // like any other line: miss on a cold cache, hit while resident, evicted
  // like its set-mates.
  CacheSim cache(256, 2, 128);  // 1 set x 2 ways: every line shares the set
  ReferenceLru ref(256, 2, 128);
  ExpectSameDecisions(cache, ref, {0, 0, 1, 0, 2, 1, 0, 0, 3, 4, 0});
  EXPECT_EQ(cache.hits(), 3u);

  CacheSim big(4 << 20, 16, 128);
  ReferenceLru big_ref(4 << 20, 16, 128);
  std::vector<uint64_t> lines = RecordedLineSequence(20000, 64);
  for (size_t i = 0; i < lines.size(); i += 7) {
    lines[i] = 0;
  }
  ExpectSameDecisions(big, big_ref, lines);
}

TEST(CacheSimTest, FlushAndResetCountersMidSequenceMatchReference) {
  CacheSim cache(6 << 20, 16, 128);
  ReferenceLru ref(6 << 20, 16, 128);
  const std::vector<uint64_t> lines = RecordedLineSequence(90000, 150000);
  const size_t third = lines.size() / 3;
  const std::vector<uint64_t> a(lines.begin(), lines.begin() + third);
  const std::vector<uint64_t> b(lines.begin() + third, lines.begin() + 2 * third);
  const std::vector<uint64_t> c(lines.begin() + 2 * third, lines.end());

  ExpectSameDecisions(cache, ref, a);
  cache.ResetCounters();  // contents stay: b starts warm
  ref.ResetCounters();
  ExpectSameDecisions(cache, ref, b);
  EXPECT_GT(cache.hits(), 0u);
  cache.Flush();  // contents go: a replay of b starts cold
  ref.Flush();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  ExpectSameDecisions(cache, ref, b);
  ExpectSameDecisions(cache, ref, c);
}

TEST(CacheSimDeathTest, EmptySentinelLineIsRejectedInDebugBuilds) {
  CacheSim cache(1 << 16, 8, 128);
  EXPECT_DEBUG_DEATH(cache.AccessLine(UINT64_MAX), "line != kEmpty");
}

TEST(CacheSimTest, ResetCountersKeepsContents) {
  CacheSim cache(1 << 16, 8, 128);
  cache.Access(0);
  cache.ResetCounters();
  EXPECT_TRUE(cache.Access(0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace minuet
