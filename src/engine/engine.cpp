#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <type_traits>

#include "src/core/weight_offsets.h"
#include "src/gmas/autotune.h"
#include "src/gmas/metadata.h"
#include "src/gmas/pooling.h"
#include "src/gpusort/radix_sort.h"
#include "src/map/binary_baselines.h"
#include "src/map/hash_map.h"
#include "src/map/minuet_map.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/half.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace minuet {

namespace {

// CoordLevel/LevelPtr live in plan_cache.h now, shared with ExecutionPlan.

struct Activation {
  LevelPtr level;
  FeatureMatrix features;
};

void AccumulateKernel(StepBreakdown& breakdown, double StepBreakdown::*field,
                      const KernelStats& stats) {
  breakdown.*field += stats.cycles;
  breakdown.launches += stats.num_launches;
}

// Elementwise kernels. BN parameters are folded constants (inference mode);
// the nonlinearity is a leaky ReLU so that signal survives for the
// engine-equivalence tests.
KernelStats ApplyBnRelu(Device& device, FeatureMatrix& features, bool functional) {
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = features.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kBnRelu = KernelId::Intern("engine/elementwise/bn_relu");
  return device.Launch(kBnRelu, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    if (begin >= end) {
      return;
    }
    float* data = features.data() + begin * features.cols();
    size_t bytes = static_cast<size_t>((end - begin) * features.cols()) * sizeof(float);
    ctx.GlobalRead(data, bytes);
    if (functional) {
      for (int64_t i = 0; i < (end - begin) * features.cols(); ++i) {
        data[i] = data[i] > 0.0f ? data[i] : 0.1f * data[i];
      }
    }
    ctx.GlobalWrite(data, bytes);
    ctx.Compute(bytes / 4);
  });
}

KernelStats AddInto(Device& device, FeatureMatrix& dst, const FeatureMatrix& src,
                    bool functional) {
  MINUET_CHECK_EQ(dst.rows(), src.rows());
  MINUET_CHECK_EQ(dst.cols(), src.cols());
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = dst.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kResidualAdd = KernelId::Intern("engine/elementwise/residual_add");
  return device.Launch(kResidualAdd, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    if (begin >= end) {
      return;
    }
    int64_t n = (end - begin) * dst.cols();
    float* d = dst.data() + begin * dst.cols();
    const float* s = src.data() + begin * src.cols();
    ctx.GlobalRead(s, static_cast<size_t>(n) * sizeof(float));
    ctx.GlobalRead(d, static_cast<size_t>(n) * sizeof(float));
    if (functional) {
      for (int64_t i = 0; i < n; ++i) {
        d[i] += s[i];
      }
    }
    ctx.GlobalWrite(d, static_cast<size_t>(n) * sizeof(float));
    ctx.Compute(static_cast<uint64_t>(n));
  });
}

// Copies (or concatenates) rows; used by skip saves and concat.
KernelStats CopyColumns(Device& device, const FeatureMatrix& src, FeatureMatrix& dst,
                        int64_t dst_col_offset, bool functional) {
  MINUET_CHECK_EQ(src.rows(), dst.rows());
  MINUET_CHECK_LE(dst_col_offset + src.cols(), dst.cols());
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = src.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kCopyFeatures = KernelId::Intern("engine/elementwise/copy_features");
  return device.Launch(kCopyFeatures, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    for (int64_t i = begin; i < end; ++i) {
      auto s = src.Row(i);
      ctx.GlobalRead(s.data(), s.size_bytes());
      float* d = dst.data() + i * dst.cols() + dst_col_offset;
      if (functional) {
        std::copy(s.begin(), s.end(), d);
      }
      ctx.GlobalWrite(d, s.size_bytes());
    }
    ctx.Compute(static_cast<uint64_t>((end - begin) * src.cols()) / 4);
  });
}

KernelStats GlobalAvgPool(Device& device, const FeatureMatrix& src, FeatureMatrix& dst,
                          bool functional) {
  MINUET_CHECK_EQ(dst.rows(), 1);
  MINUET_CHECK_EQ(dst.cols(), src.cols());
  const int64_t rows = std::max<int64_t>(src.rows(), 1);
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t blocks = std::max<int64_t>(1, (src.rows() + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kGlobalAvgPool = KernelId::Intern("engine/elementwise/global_avg_pool");
  return device.Launch(kGlobalAvgPool, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, src.rows());
    if (begin >= end) {
      return;
    }
    ctx.GlobalRead(src.data() + begin * src.cols(),
                   static_cast<size_t>((end - begin) * src.cols()) * sizeof(float));
    if (functional) {
      for (int64_t i = begin; i < end; ++i) {
        for (int64_t j = 0; j < src.cols(); ++j) {
          dst.At(0, j) += src.At(i, j) / static_cast<float>(rows);
        }
      }
    }
    ctx.GlobalWrite(dst.data(), static_cast<size_t>(dst.cols()) * sizeof(float));
    ctx.Compute(static_cast<uint64_t>((end - begin) * src.cols()));
  });
}

// Rounds all activations through binary16 (fp16 inference mode).
void RoundFeaturesToHalf(FeatureMatrix& features) {
  float* data = features.data();
  const int64_t n = features.rows() * features.cols();
  for (int64_t i = 0; i < n; ++i) {
    data[i] = RoundToHalf(data[i]);
  }
}

// One coordinate level. `make_sorted()` returns either its coordinates or
// its packed keys, sorted by key (the library invariant); the other array is
// derived here. The level is allocated before its arrays: with
// deterministic_addressing the cache model numbers granules by first touch,
// so host allocation order is part of what a run simulates.
template <typename MakeSorted>
LevelPtr MakeLevel(int32_t tensor_stride, LevelPtr parent, MakeSorted&& make_sorted) {
  auto level = std::make_shared<CoordLevel>();
  level->tensor_stride = tensor_stride;
  if constexpr (std::is_same_v<decltype(make_sorted()), std::vector<uint64_t>>) {
    level->keys = make_sorted();
    level->coords.resize(level->keys.size());
    std::transform(level->keys.begin(), level->keys.end(), level->coords.begin(), UnpackCoord);
  } else {
    level->coords = make_sorted();
    level->keys = PackCoords(level->coords);
  }
  level->parent = std::move(parent);
  return level;
}

// How a layer obtains its output coordinates: the input level itself (or, for
// a transposed conv, its parent), or a fresh level that must be deduplicated.
enum class CoordGen { kReuse, kDownsample, kDilate };

struct LayerCoords {
  LevelPtr out;
  std::vector<Coord3> weight_offsets;
  // What the Map step queries: the weight offsets, mirrored for a transposed
  // conv. Kernel-map rows keep the weight order either way.
  std::vector<Coord3> query_offsets;
  CoordGen gen = CoordGen::kReuse;
};

bool IsPointwise(const ConvParams& conv) {
  return conv.kernel_size == 1 && conv.stride == 1 && !conv.transposed;
}

// The coordinate flow of one conv or pooling layer, on the host only:
// same-level, strided (Eq. 1), generative (dilated) and transposed (back to
// the parent level) outputs. Kernels that the generation costs are charged
// separately by ChargeCoordDedup.
LayerCoords ResolveLayerCoords(const LevelPtr& in, const ConvParams& conv) {
  // Check the parent before deriving offsets: a transposed conv with no
  // encoder level would otherwise die on tensor_stride / stride == 0 with an
  // unrelated message.
  if (conv.transposed) {
    MINUET_CHECK(in->parent != nullptr) << "transposed conv without a matching encoder level";
  }
  LayerCoords layer;
  layer.weight_offsets = MakeWeightOffsets(
      conv.kernel_size, conv.transposed ? in->tensor_stride / conv.stride : in->tensor_stride);
  layer.query_offsets = layer.weight_offsets;
  if (conv.transposed) {
    // Transposed map: entry (p, q, d) when q = p + d, i.e. the normal builder
    // with mirrored offsets.
    layer.out = in->parent;
    for (Coord3& d : layer.query_offsets) {
      d = Coord3{-d.x, -d.y, -d.z};
    }
  } else if (conv.generative) {
    MINUET_CHECK_EQ(conv.stride, 1) << "generative convs must have stride 1";
    layer.out = MakeLevel(in->tensor_stride, in,
                          [&] { return DilateCoords(in->coords, layer.weight_offsets); });
    layer.gen = CoordGen::kDilate;
  } else if (conv.stride > 1) {
    const int32_t step = in->tensor_stride * conv.stride;
    layer.out = MakeLevel(step, in, [&] { return DownsampleCoords(in->coords, step); });
    layer.gen = CoordGen::kDownsample;
  } else {
    layer.out = in;
  }
  return layer;
}

// Charges the kernels behind a fresh output level (ResolveLayerCoords
// computes the functional result). Candidates first: a strided layer
// floor-snaps its |P| inputs, a generative conv emits K^3 |P| dilated
// candidates. Then the dedup Eq. 1 requires: sorted engines sort and compact
// adjacent runs; hash engines insert every candidate (duplicates probe and
// bail), modelled as a cuckoo build over the unique set plus a probe pass
// over all candidates.
KernelStats ChargeCoordDedup(Device& device, const CoordLevel& in, const LayerCoords& layer,
                             bool sorted_engine) {
  KernelStats stats;
  const bool dilate = layer.gen == CoordGen::kDilate;
  const std::span<const uint64_t> input_keys = in.keys;
  const int64_t n =
      static_cast<int64_t>(input_keys.size() * (dilate ? layer.weight_offsets.size() : 1));
  if (layer.gen == CoordGen::kReuse || n == 0) {
    return stats;
  }
  std::vector<uint64_t> candidates(static_cast<size_t>(n));
  constexpr int64_t kItemsPerBlock = 1024;
  const int64_t blocks = (n + kItemsPerBlock - 1) / kItemsPerBlock;
  if (dilate) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      candidates[i] = input_keys[i % input_keys.size()] + (i / input_keys.size());
    }
    static const KernelId kDilateCandidates = KernelId::Intern("engine/coords/dilate_candidates");
    stats += device.Launch(kDilateCandidates, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
      int64_t begin = ctx.block_index() * kItemsPerBlock;
      int64_t end = std::min(begin + kItemsPerBlock, n);
      ctx.GlobalRead(&candidates[static_cast<size_t>(begin)],
                     static_cast<size_t>(end - begin) * sizeof(uint64_t));
      ctx.Compute(static_cast<uint64_t>(end - begin) * 4);
      ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                      static_cast<size_t>(end - begin) * sizeof(uint64_t));
    });
  } else {
    const int32_t step = layer.out->tensor_stride;
    static const KernelId kDownsampleCandidates =
        KernelId::Intern("engine/coords/downsample_candidates");
    stats += device.Launch(kDownsampleCandidates, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
      int64_t begin = ctx.block_index() * kItemsPerBlock;
      int64_t end = std::min(begin + kItemsPerBlock, n);
      ctx.GlobalRead(&input_keys[static_cast<size_t>(begin)],
                     static_cast<size_t>(end - begin) * sizeof(uint64_t));
      for (int64_t i = begin; i < end; ++i) {
        Coord3 c = UnpackCoord(input_keys[static_cast<size_t>(i)]);
        candidates[static_cast<size_t>(i)] =
            PackCoord(Coord3{FloorDiv(c.x, step) * step, FloorDiv(c.y, step) * step,
                             FloorDiv(c.z, step) * step});
      }
      ctx.Compute(static_cast<uint64_t>(end - begin) * 6);
      ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                      static_cast<size_t>(end - begin) * sizeof(uint64_t));
    });
  }

  if (sorted_engine) {
    stats += RadixSortCoordPairs(device, candidates, {}).kernels;
    const int64_t num_unique = layer.out->size();
    const KernelId unique = KernelId::Intern(dilate ? "engine/coords/dilate_unique"
                                                    : "engine/coords/downsample_unique");
    stats += device.Launch(unique, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
      int64_t begin = ctx.block_index() * kItemsPerBlock;
      int64_t end = std::min(begin + kItemsPerBlock, n);
      ctx.GlobalRead(&candidates[static_cast<size_t>(begin)],
                     static_cast<size_t>(end - begin) * sizeof(uint64_t));
      ctx.Compute(static_cast<uint64_t>(end - begin));
      int64_t share = num_unique * (end - begin) / n;
      ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                      static_cast<size_t>(share) * sizeof(uint64_t));
    });
  } else {
    std::vector<uint64_t> unique = candidates;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    std::unique_ptr<HashTableBase> table;
    stats += BuildEngineHashTable(device, HashTableKind::kCuckoo, unique, &table);
    std::vector<uint32_t> results(candidates.size());
    stats += table->Query(device, candidates, results);
  }
  return stats;
}

bool UsesSortedMap(const EngineConfig& config) {
  return config.kind == EngineKind::kMinuet && config.features.segmented_sorting;
}

// The Map step of one layer with the engine's map builder: Minuet's sorted
// arrays (Section 5.1), or the baselines' hash tables.
MapBuildResult BuildLayerMap(Device& device, const EngineConfig& config, const CoordLevel& in,
                             const CoordLevel& out, std::span<const Coord3> offsets) {
  MapBuildInput map_in;
  map_in.source_keys = in.keys;
  map_in.output_keys = out.keys;
  map_in.offsets = offsets;
  map_in.source_sorted = true;
  map_in.output_sorted = true;
  if (UsesSortedMap(config)) {
    MinuetMapConfig map_cfg;
    map_cfg.source_block_size = config.map_source_block;
    map_cfg.query_block_size = config.map_query_block;
    map_cfg.double_traversal = config.features.double_traversal;
    return MinuetMapBuilder(map_cfg).Build(device, map_in);
  }
  return HashMapBuilder(config.kind == EngineKind::kMinkowski ? HashTableKind::kLinearProbe
                                                              : HashTableKind::kCuckoo)
      .Build(device, map_in);
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMinuet:
      return "Minuet";
    case EngineKind::kTorchSparse:
      return "TorchSparse";
    case EngineKind::kMinkowski:
      return "MinkowskiEngine";
  }
  return "unknown";
}

StepBreakdown& StepBreakdown::operator+=(const StepBreakdown& other) {
  map_build += other.map_build;
  map_query += other.map_query;
  map_delta += other.map_delta;
  metadata += other.metadata;
  gather += other.gather;
  gemm += other.gemm;
  scatter += other.scatter;
  elementwise += other.elementwise;
  launches += other.launches;
  gemm_kernels += other.gemm_kernels;
  padded_rows += other.padded_rows;
  actual_rows += other.actual_rows;
  return *this;
}

Engine::Engine(const EngineConfig& config, const DeviceConfig& device_config)
    : config_(config),
      device_config_(device_config),
      device_(std::make_unique<Device>(device_config)) {}

void Engine::Prepare(const Network& network, uint64_t seed) {
  network_ = network;
  prepared_ = true;
  ++plan_generation_;  // new weights: cached plans must not be replayed
  conv_weights_.clear();
  linear_weights_.clear();
  layer_tiles_.clear();

  uint64_t state = seed;
  for (const Instr& instr : network_.instrs) {
    if (instr.op == Instr::Op::kConv) {
      Pcg32 rng(SplitMix64(state), 17);
      ConvWeights weights;
      const int64_t n_off = instr.conv.NumOffsets();
      // He-style scale keeps activations in range through deep networks.
      float scale =
          std::sqrt(2.0f / static_cast<float>(instr.conv.c_in * std::max<int64_t>(n_off, 1)));
      for (int64_t k = 0; k < n_off; ++k) {
        FeatureMatrix w(instr.conv.c_in, instr.conv.c_out);
        for (int64_t a = 0; a < instr.conv.c_in; ++a) {
          for (int64_t b = 0; b < instr.conv.c_out; ++b) {
            w.At(a, b) = static_cast<float>(rng.NextGaussian()) * scale;
          }
        }
        weights.per_offset.push_back(std::move(w));
      }
      conv_weights_.push_back(std::move(weights));
      layer_tiles_.emplace_back(config_.fixed_tile, config_.fixed_tile);
    } else if (instr.op == Instr::Op::kLinear) {
      Pcg32 rng(SplitMix64(state), 19);
      // Shape resolved at Prepare time from the preceding conv channels is
      // not tracked here; the linear head infers c_in at Run time, so store
      // the RNG seed material instead via a 0x0 placeholder replaced lazily.
      linear_weights_.emplace_back();
      (void)rng;
    }
  }
}

double Engine::Autotune(std::span<const PointCloud> samples) {
  if (config_.kind != EngineKind::kMinuet || !config_.features.autotuned_tiles ||
      samples.empty()) {
    return 0.0;
  }
  WallTimer timer;
  Device scratch(device_config_);

  // Per conv layer: accumulated (tile -> cycles) profiles across samples.
  std::vector<std::map<int, double>> gather_profiles(conv_weights_.size());
  std::vector<std::map<int, double>> scatter_profiles(conv_weights_.size());

  for (const PointCloud& sample : samples) {
    // Walk the network's coordinate flow on the sample and profile every
    // non-trivial conv layer's Gather and Scatter tiles (Algorithm 2). Nothing
    // here charges the coordinate dedup kernels.
    LevelPtr level = MakeLevel(1, nullptr, [&] {
      std::vector<uint64_t> keys = PackCoords(sample.coords);
      std::sort(keys.begin(), keys.end());
      return keys;
    });
    size_t conv_index = 0;
    for (const Instr& instr : network_.instrs) {
      if (instr.op == Instr::Op::kMaxPool || instr.op == Instr::Op::kAvgPool) {
        // Pooling reshapes the coordinate flow but has no tiles to tune.
        level = ResolveLayerCoords(level, instr.conv).out;
        continue;
      }
      if (instr.op != Instr::Op::kConv) {
        continue;
      }
      const ConvParams& conv = instr.conv;
      const size_t layer = conv_index++;
      if (IsPointwise(conv)) {
        continue;  // a plain GEMM; no tiles to tune
      }
      LayerCoords coords = ResolveLayerCoords(level, conv);
      MapBuildResult map =
          BuildLayerMap(scratch, config_, *level, *coords.out, coords.query_offsets);
      KernelMap kernel_map = CompactPositionTable(map.table, coords.query_offsets);
      GroupingPlan plan = PlanGemmGroups(kernel_map.EntryCounts(), GroupingStrategy::kSortedOrder,
                                         config_.padding_threshold);
      MetadataTables tables = BuildMetadataTables(scratch, kernel_map, plan, level->size(),
                                                  coords.out->size(), nullptr);
      AutotuneOutcome gather = AutotuneGatherTile(scratch, tables, conv.c_in);
      AutotuneOutcome scatter = AutotuneScatterTile(scratch, tables, conv.c_out);
      for (const auto& [tile, cycles] : gather.profile) {
        gather_profiles[layer][tile] += cycles;
      }
      for (const auto& [tile, cycles] : scatter.profile) {
        scatter_profiles[layer][tile] += cycles;
      }
      level = coords.out;
    }
  }

  // Pick the tile with the lowest total latency across the samples
  // (Algorithm 2 line 7).
  auto pick_best = [](const std::map<int, double>& profile, int fallback) {
    int best = fallback;
    double best_cycles = 0.0;
    for (const auto& [tile, cycles] : profile) {
      if (best_cycles == 0.0 || cycles < best_cycles) {
        best_cycles = cycles;
        best = tile;
      }
    }
    return best;
  };
  for (size_t i = 0; i < conv_weights_.size(); ++i) {
    if (!gather_profiles[i].empty()) {
      layer_tiles_[i] = {pick_best(gather_profiles[i], layer_tiles_[i].first),
                         pick_best(scatter_profiles[i], layer_tiles_[i].second)};
    }
  }
  ++plan_generation_;  // re-tuned tiles: cached plans are stale
  return timer.ElapsedMillis();
}

RunResult Engine::Run(const PointCloud& input) { return RunImpl(input, nullptr); }

RunResult Engine::RunImpl(const PointCloud& input, SessionCtx* ctx) {
  MINUET_CHECK(prepared_) << "Prepare() must run before Run()";
  MINUET_CHECK_EQ(input.channels(), network_.in_channels);
  Device& dev = *device_;
  RunResult result;

  trace::Span run_span("run", "run");
  if (run_span.active()) {
    run_span.Attr("engine", EngineKindName(config_.kind));
    run_span.Attr("num_points", input.num_points());
    run_span.Attr("warm", int64_t{ctx != nullptr && ctx->replay != nullptr});
  }
  // Stream-pool GEMM overlap makes a layer's reported simulated time smaller
  // than the sum of its kernels' cycles; accumulated here so the run span can
  // reconcile its children the same way the layer spans do.
  double run_overlap_saved = 0.0;

  const bool functional = config_.functional;
  const bool is_minuet = config_.kind == EngineKind::kMinuet;
  const bool use_sorted_map = UsesSortedMap(config_);

  WorkspacePool* pool = ctx != nullptr ? ctx->pool : nullptr;
  ExecutionPlan* plan_record = ctx != nullptr ? ctx->record : nullptr;
  const ExecutionPlan* plan_replay = ctx != nullptr ? ctx->replay : nullptr;
  if (plan_record != nullptr) {
    plan_record->tiles = layer_tiles_;
  }
  // All activation matrices produced below come from the pool (zero-filled,
  // matching the fresh-allocation semantics) and go back to it when replaced,
  // so a warmed-up session allocates nothing per run.
  auto new_matrix = [&](int64_t rows, int64_t cols) {
    if (pool != nullptr) {
      return FeatureMatrix(rows, cols,
                           pool->Acquire(static_cast<size_t>(rows * cols), /*zero=*/true));
    }
    return FeatureMatrix(rows, cols, 0.0f);
  };
  auto recycle = [&](FeatureMatrix& m) {
    if (pool != nullptr && m.rows() * m.cols() > 0) {
      pool->Release(m.TakeStorage());
    }
  };

  // All engines consume the canonical (key-sorted) coordinate order so that
  // outputs are comparable. Minuet is the engine that *needs* sorted arrays,
  // so it alone pays for the input sort (Figure 9's one-time sort). A warm
  // session run reuses the cached sorted level, so the coordinate radix sort
  // drops out; the feature permutation is per-run work and stays.
  Activation act;
  {
    PointCloud sorted = input;
    SortPointCloud(sorted);
    if (pool != nullptr) {
      // Move the input features into pooled storage *before* any kernel
      // touches them: the per-run `sorted` copy lives at whatever address the
      // heap hands out, and with deterministic_addressing the cache simulator
      // keys line identity off first-touch order — a fresh address per run
      // would make warm replays of the same cloud jitter. Pool slabs are
      // stable across runs, so this keeps warm runs bit-identical (and keeps
      // every later recycle() paired with a pool Acquire).
      FeatureMatrix pooled(sorted.features.rows(), sorted.features.cols(),
                           pool->Acquire(static_cast<size_t>(sorted.features.rows() *
                                                             sorted.features.cols()),
                                         /*zero=*/false));
      std::copy(sorted.features.data(),
                sorted.features.data() + sorted.features.rows() * sorted.features.cols(),
                pooled.data());
      sorted.features = std::move(pooled);
    }
    const bool incremental_root = ctx != nullptr && ctx->incremental_root != nullptr;
    if (use_sorted_map) {
      trace::Span span("engine/input_sort", "step");
      if (plan_replay == nullptr && !incremental_root) {
        std::vector<uint64_t> keys = PackCoords(input.coords);
        std::vector<uint32_t> vals(keys.size());
        std::iota(vals.begin(), vals.end(), 0u);
        KernelStats sort_stats = RadixSortCoordPairs(dev, keys, vals).kernels;
        AccumulateKernel(result.total, &StepBreakdown::map_build, sort_stats);
      }
      // Features are permuted into sorted order alongside.
      AccumulateKernel(result.total, &StepBreakdown::map_build,
                       CopyColumns(dev, sorted.features, sorted.features, 0, false));
    }
    if (incremental_root) {
      // The caller maintained the sorted root across frames (delta merge
      // instead of a re-sort); its already-launched cost is attributed here
      // even on a warm replay — the kernels ran either way.
      result.total.map_delta += ctx->incremental_cycles;
      result.total.launches += ctx->incremental_launches;
    }
    if (plan_replay != nullptr) {
      act.level = plan_replay->root;
      MINUET_CHECK(act.level != nullptr) << "replayed plan has no root level";
    } else if (incremental_root) {
      act.level = ctx->incremental_root;
      // The invariant the whole incremental path rests on: the maintained
      // level IS the sorted input, coordinate for coordinate.
      MINUET_CHECK(act.level->tensor_stride == 1 && act.level->coords == sorted.coords)
          << "incremental root diverged from the frame's sorted coordinates";
      if (plan_record != nullptr) {
        plan_record->root = act.level;
      }
    } else {
      act.level = MakeLevel(1, nullptr, [&] { return std::move(sorted.coords); });
      if (plan_record != nullptr) {
        plan_record->root = act.level;
      }
    }
    act.features = std::move(sorted.features);  // pool-owned when pooled above
  }

  std::vector<Activation> slots(static_cast<size_t>(network_.NumSlots()));
  int conv_index = 0;
  size_t linear_index = 0;

  for (const Instr& instr : network_.instrs) {
    switch (instr.op) {
      case Instr::Op::kConv: {
        const ConvParams& conv = instr.conv;
        const ConvWeights& weights = conv_weights_[static_cast<size_t>(conv_index)];
        Activation* target = instr.slot >= 0 ? &slots[static_cast<size_t>(instr.slot)] : &act;
        MINUET_CHECK_EQ(target->features.cols(), conv.c_in);

        LayerRecord record;
        record.conv_index = conv_index;
        record.params = conv;
        record.num_inputs = target->level->size();
        StepBreakdown layer;
        trace::Span layer_span;
        if (trace::Span::Enabled()) {
          layer_span = trace::Span("conv" + std::to_string(conv_index), "layer");
        }
        double layer_overlap_saved = 0.0;

        if (IsPointwise(conv)) {
          // 1x1 stride-1 conv == one GEMM over the feature matrix.
          trace::Span span("engine/conv1x1", "step");
          FeatureMatrix out = new_matrix(target->features.rows(), conv.c_out);
          static const KernelId kConv1x1 = KernelId::Intern("engine/gemm/conv1x1");
          KernelStats gemm = dev.LaunchGemm(kConv1x1, target->features.rows(), conv.c_out,
                                            conv.c_in);
          AccumulateKernel(layer, &StepBreakdown::gemm, gemm);
          layer.gemm_kernels += 1;
          if (functional) {
            BlockedGemm(target->features.data(), weights.per_offset[0].data(), out.data(),
                        target->features.rows(), conv.c_in, conv.c_out);
          }
          recycle(target->features);
          target->features = std::move(out);
          record.num_outputs = target->level->size();
        } else {
          // Warm replay consumes the next cached conv step; cold sessions
          // append one. Both are per-instruction and in program order.
          const ConvStep* cached = nullptr;
          if (plan_replay != nullptr) {
            MINUET_CHECK_LT(ctx->conv_cursor, plan_replay->conv_steps.size())
                << "replayed plan does not match the network";
            cached = &plan_replay->conv_steps[ctx->conv_cursor++];
          }
          ConvStep* step = nullptr;
          if (plan_record != nullptr) {
            plan_record->conv_steps.emplace_back();
            step = &plan_record->conv_steps.back();
          }

          LevelPtr out_level;
          KernelMap built_map;             // cold path only
          const KernelMap* kernel_map;     // what GMaS executes
          if (cached != nullptr) {
            // The entire Map step — output-coordinate generation, map build,
            // queries, compaction — is a pure function of the coordinate set
            // and is replayed from the plan.
            out_level = cached->out_level;
            kernel_map = cached->kernel_map.get();
          } else {
            LayerCoords coords = ResolveLayerCoords(target->level, conv);
            out_level = coords.out;
            if (coords.gen != CoordGen::kReuse) {
              // Output-coordinate generation must deduplicate (Eq. 1).
              trace::Span span("engine/coords_dedup", "step");
              AccumulateKernel(layer, &StepBreakdown::map_build,
                               ChargeCoordDedup(dev, *target->level, coords, use_sorted_map));
            }

            // --- Map step.
            trace::Span map_span("engine/map", "step");
            MapBuildResult map = BuildLayerMap(dev, config_, *target->level, *out_level,
                                               coords.query_offsets);
            AccumulateKernel(layer, &StepBreakdown::map_build, map.build_stats);
            AccumulateKernel(layer, &StepBreakdown::map_query, map.query_stats);
            built_map = CompactPositionTable(map.table, coords.query_offsets);
            AccumulateKernel(layer, &StepBreakdown::map_query,
                             ChargeMapCompaction(dev, map.table, built_map.TotalEntries()));
            kernel_map = &built_map;
          }
          record.num_outputs = out_level->size();

          // --- GMaS step.
          FeatureMatrix out;
          if (config_.kind == EngineKind::kMinkowski) {
            GmasResult gmas = RunPerOffsetFused(dev, *kernel_map, target->features,
                                                weights.per_offset, out_level->size(), functional);
            AccumulateKernel(layer, &StepBreakdown::gather, gmas.stats.gather);
            AccumulateKernel(layer, &StepBreakdown::gemm, gmas.stats.gemm);
            layer.gemm_kernels += gmas.stats.plan.NumKernels();
            layer.actual_rows += gmas.stats.plan.actual_rows;
            if (pool != nullptr) {
              // The fused path allocates its own output; move it into pooled
              // storage so the recycle chain stays pool-owned throughout.
              out = new_matrix(gmas.output.rows(), gmas.output.cols());
              std::copy(gmas.output.data(),
                        gmas.output.data() + gmas.output.rows() * gmas.output.cols(), out.data());
            } else {
              out = std::move(gmas.output);
            }
          } else {
            GmasConfig gmas_cfg;
            bool sorted_grouping = is_minuet && config_.features.sorted_grouping;
            gmas_cfg.grouping = sorted_grouping ? GroupingStrategy::kSortedOrder
                                                : GroupingStrategy::kMapOrder;
            gmas_cfg.padding_threshold = config_.padding_threshold;
            auto [gather_tile, scatter_tile] =
                (plan_replay != nullptr ? plan_replay->tiles
                                        : layer_tiles_)[static_cast<size_t>(conv_index)];
            // Tiles must divide the channel counts; the fixed default may not.
            while (conv.c_in % gather_tile != 0) {
              --gather_tile;
            }
            while (conv.c_out % scatter_tile != 0) {
              --scatter_tile;
            }
            gmas_cfg.gather_tile = gather_tile;
            gmas_cfg.scatter_tile = scatter_tile;
            // The CUDA-stream pool (s = 4) ships with Minuet's GEMM grouping
            // (Section 5.2.2); TorchSparse issues its GEMMs on one stream.
            gmas_cfg.stream_pool_size = sorted_grouping ? config_.stream_pool_size : 1;
            gmas_cfg.functional = functional;
            gmas_cfg.precision = config_.precision;
            record.gather_tile = gather_tile;
            record.scatter_tile = scatter_tile;
            GmasScratch scratch;
            GmasScratch* scratch_ptr = nullptr;
            if (ctx != nullptr) {
              scratch.pool = pool;
              if (cached != nullptr && cached->grouping != nullptr) {
                scratch.plan = cached->grouping.get();
                scratch.tables = cached->tables.get();
              } else if (step != nullptr) {
                scratch.record_tables = true;
              }
              scratch_ptr = &scratch;
            }
            GmasResult gmas =
                RunGatherGemmScatter(dev, *kernel_map, target->features, weights.per_offset,
                                     out_level->size(), gmas_cfg, scratch_ptr);
            AccumulateKernel(layer, &StepBreakdown::metadata, gmas.stats.metadata);
            AccumulateKernel(layer, &StepBreakdown::metadata, gmas.stats.buffer_setup);
            AccumulateKernel(layer, &StepBreakdown::gather, gmas.stats.gather);
            layer.gemm += gmas.stats.gemm_stream_cycles;
            layer.launches += gmas.stats.gemm.num_launches;
            layer_overlap_saved = gmas.stats.gemm.cycles - gmas.stats.gemm_stream_cycles;
            AccumulateKernel(layer, &StepBreakdown::scatter, gmas.stats.scatter);
            layer.gemm_kernels += gmas.stats.plan.NumKernels();
            layer.padded_rows += gmas.stats.plan.padded_rows();
            layer.actual_rows += gmas.stats.plan.actual_rows;
            if (step != nullptr) {
              step->grouping = std::make_shared<GroupingPlan>(gmas.stats.plan);
              step->tables = gmas.tables;  // may be null for an empty map
            }
            out = std::move(gmas.output);
          }
          if (step != nullptr) {
            step->out_level = out_level;
            step->kernel_map = std::make_shared<KernelMap>(std::move(built_map));
          }
          recycle(target->features);
          target->features = std::move(out);
          target->level = out_level;
        }

        if (functional && config_.precision == Precision::kFp16) {
          RoundFeaturesToHalf(target->features);
        }
        if (layer_span.active()) {
          layer_span.Attr("conv_index", int64_t{conv_index});
          layer_span.Attr("c_in", conv.c_in);
          layer_span.Attr("c_out", conv.c_out);
          layer_span.Attr("kernel_size", int64_t{conv.kernel_size});
          layer_span.Attr("stride", int64_t{conv.stride});
          layer_span.Attr("num_inputs", record.num_inputs);
          layer_span.Attr("num_outputs", record.num_outputs);
          layer_span.Attr("sim_cycles", layer.TotalCycles());
          layer_span.Attr("overlap_saved_cycles", layer_overlap_saved);
          layer_span.Attr("padding_ratio", layer.PaddingOverhead());
          layer_span.Attr("launches", layer.launches);
          layer_span.Attr("gemm_kernels", layer.gemm_kernels);
        }
        run_overlap_saved += layer_overlap_saved;
        record.cycles = layer;
        result.total += layer;
        result.layers.push_back(std::move(record));
        ++conv_index;
        break;
      }
      case Instr::Op::kMaxPool:
      case Instr::Op::kAvgPool: {
        trace::Span step_span("engine/pool", "step");
        const ConvParams& pool_params = instr.conv;
        MINUET_CHECK(!pool_params.transposed && !pool_params.generative);
        const PoolStep* cached = nullptr;
        if (plan_replay != nullptr) {
          MINUET_CHECK_LT(ctx->pool_cursor, plan_replay->pool_steps.size())
              << "replayed plan does not match the network";
          cached = &plan_replay->pool_steps[ctx->pool_cursor++];
        }
        LevelPtr out_level;
        MapBuildResult map;               // cold path only
        const MapPositionTable* table;    // what the pool kernel reads
        if (cached != nullptr) {
          out_level = cached->out_level;
          table = cached->table.get();
        } else {
          LayerCoords coords = ResolveLayerCoords(act.level, pool_params);
          out_level = coords.out;
          AccumulateKernel(result.total, &StepBreakdown::map_build,
                           ChargeCoordDedup(dev, *act.level, coords, use_sorted_map));
          map = BuildLayerMap(dev, config_, *act.level, *out_level, coords.query_offsets);
          AccumulateKernel(result.total, &StepBreakdown::map_build, map.build_stats);
          AccumulateKernel(result.total, &StepBreakdown::map_query, map.query_stats);
          table = &map.table;
        }
        FeatureMatrix pooled = new_matrix(out_level->size(), act.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         SparsePoolKernel(dev, *table, act.features, pooled,
                                          instr.op == Instr::Op::kMaxPool ? PoolMode::kMax
                                                                          : PoolMode::kAverage,
                                          functional));
        if (plan_record != nullptr) {
          PoolStep step;
          step.out_level = out_level;
          step.table = std::make_shared<MapPositionTable>(std::move(map.table));
          plan_record->pool_steps.push_back(std::move(step));
        }
        recycle(act.features);
        act.features = std::move(pooled);
        act.level = out_level;
        break;
      }
      case Instr::Op::kBnRelu: {
        trace::Span step_span("engine/elementwise", "step");
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         ApplyBnRelu(dev, act.features, functional));
        if (functional && config_.precision == Precision::kFp16) {
          RoundFeaturesToHalf(act.features);
        }
        break;
      }
      case Instr::Op::kResidualSave:
      case Instr::Op::kSkipSave: {
        trace::Span step_span("engine/elementwise", "step");
        MINUET_CHECK_GE(instr.slot, 0);
        Activation& slot = slots[static_cast<size_t>(instr.slot)];
        slot.level = act.level;
        recycle(slot.features);  // a re-used slot returns its old slab first
        slot.features = new_matrix(act.features.rows(), act.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         CopyColumns(dev, act.features, slot.features, 0, functional));
        break;
      }
      case Instr::Op::kResidualAdd: {
        trace::Span step_span("engine/elementwise", "step");
        MINUET_CHECK_GE(instr.slot, 0);
        Activation& slot = slots[static_cast<size_t>(instr.slot)];
        MINUET_CHECK(slot.level == act.level) << "residual add across coordinate levels";
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         AddInto(dev, act.features, slot.features, functional));
        break;
      }
      case Instr::Op::kConcatSkip: {
        trace::Span step_span("engine/elementwise", "step");
        MINUET_CHECK_GE(instr.slot, 0);
        Activation& slot = slots[static_cast<size_t>(instr.slot)];
        MINUET_CHECK(slot.level == act.level) << "concat across coordinate levels";
        FeatureMatrix merged =
            new_matrix(act.features.rows(), act.features.cols() + slot.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         CopyColumns(dev, act.features, merged, 0, functional));
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         CopyColumns(dev, slot.features, merged, act.features.cols(), functional));
        recycle(act.features);
        act.features = std::move(merged);
        break;
      }
      case Instr::Op::kGlobalAvgPool: {
        trace::Span step_span("engine/elementwise", "step");
        FeatureMatrix pooled = new_matrix(1, act.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         GlobalAvgPool(dev, act.features, pooled, functional));
        recycle(act.features);
        act.features = std::move(pooled);
        act.level = MakeLevel(act.level->tensor_stride, nullptr,
                              [] { return std::vector<Coord3>{Coord3{0, 0, 0}}; });
        break;
      }
      case Instr::Op::kLinear: {
        trace::Span step_span("engine/head", "step");
        const int64_t c_in = act.features.cols();
        FeatureMatrix& w = linear_weights_[linear_index];
        if (w.rows() != c_in || w.cols() != instr.linear_out) {
          // Lazily materialise the head weights now that c_in is known.
          Pcg32 rng(0x11ead + linear_index, 23);
          w = FeatureMatrix(c_in, instr.linear_out);
          float scale = std::sqrt(2.0f / static_cast<float>(c_in));
          for (int64_t a = 0; a < c_in; ++a) {
            for (int64_t b = 0; b < instr.linear_out; ++b) {
              w.At(a, b) = static_cast<float>(rng.NextGaussian()) * scale;
            }
          }
        }
        FeatureMatrix out = new_matrix(act.features.rows(), instr.linear_out);
        static const KernelId kLinearHead = KernelId::Intern("engine/gemm/linear_head");
        KernelStats gemm =
            dev.LaunchGemm(kLinearHead, act.features.rows(), instr.linear_out, c_in);
        AccumulateKernel(result.total, &StepBreakdown::gemm, gemm);
        if (functional) {
          BlockedGemm(act.features.data(), w.data(), out.data(), act.features.rows(), c_in,
                      instr.linear_out);
        }
        recycle(act.features);
        act.features = std::move(out);
        ++linear_index;
        break;
      }
    }
  }

  if (pool != nullptr) {
    // Detach the result into plain storage so the caller keeping it does not
    // pin a pooled slab (the next warm run would have to allocate afresh),
    // and hand every remaining slab back so the pool ends the run balanced.
    FeatureMatrix detached(act.features.rows(), act.features.cols());
    std::copy(act.features.data(),
              act.features.data() + act.features.rows() * act.features.cols(), detached.data());
    recycle(act.features);
    for (Activation& slot : slots) {
      recycle(slot.features);
    }
    result.features = std::move(detached);
  } else {
    result.features = std::move(act.features);
  }
  result.coords = act.level->coords;
  if (run_span.active()) {
    run_span.Attr("sim_cycles", result.total.TotalCycles());
    run_span.Attr("overlap_saved_cycles", run_overlap_saved);
    run_span.Attr("launches", result.total.launches);
    run_span.Attr("sim_ms", device_config_.CyclesToMillis(result.total.TotalCycles()));
  }
  return result;
}

uint64_t Engine::PlanConfigFingerprint() const {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t h = plan_generation_;
  h = mix(h, static_cast<uint64_t>(config_.kind));
  h = mix(h, static_cast<uint64_t>(config_.features.segmented_sorting) |
                 static_cast<uint64_t>(config_.features.double_traversal) << 1 |
                 static_cast<uint64_t>(config_.features.autotuned_tiles) << 2 |
                 static_cast<uint64_t>(config_.features.sorted_grouping) << 3);
  h = mix(h, static_cast<uint64_t>(config_.precision));
  h = mix(h, static_cast<uint64_t>(config_.map_source_block));
  h = mix(h, static_cast<uint64_t>(config_.map_query_block));
  uint64_t threshold_bits;
  static_assert(sizeof(threshold_bits) == sizeof(config_.padding_threshold));
  std::memcpy(&threshold_bits, &config_.padding_threshold, sizeof(threshold_bits));
  h = mix(h, threshold_bits);
  h = mix(h, static_cast<uint64_t>(config_.fixed_tile));
  h = mix(h, static_cast<uint64_t>(config_.stream_pool_size));
  h = mix(h, static_cast<uint64_t>(config_.functional));
  return h;
}

RunSession::RunSession(Engine& engine, size_t plan_capacity)
    : engine_(&engine), cache_(plan_capacity) {}

RunResult RunSession::Run(const PointCloud& input) {
  return RunIncremental(input, nullptr, 0.0, 0);
}

RunResult RunSession::RunIncremental(const PointCloud& input, LevelPtr root, double delta_cycles,
                                     int64_t delta_launches) {
  PlanKey key;
  key.coord_fingerprint = FingerprintCoords(input.coords);
  key.config_fingerprint = engine_->PlanConfigFingerprint();
  key.device = engine_->device_config_.name;

  SessionCtx ctx;
  ctx.pool = &pool_;
  ctx.incremental_root = std::move(root);
  ctx.incremental_cycles = delta_cycles;
  ctx.incremental_launches = delta_launches;
  if (std::shared_ptr<const ExecutionPlan> plan = cache_.Lookup(key)) {
    ctx.replay = plan.get();
    ++warm_runs_;
    return engine_->RunImpl(input, &ctx);
  }
  auto recorded = std::make_shared<ExecutionPlan>();
  ctx.record = recorded.get();
  ++cold_runs_;
  RunResult result = engine_->RunImpl(input, &ctx);
  cache_.Insert(key, std::move(recorded));
  return result;
}

SessionStats RunSession::stats() const {
  SessionStats stats;
  stats.cold_runs = cold_runs_;
  stats.warm_runs = warm_runs_;
  stats.plan = cache_.stats();
  stats.pool = pool_.stats();
  return stats;
}

void RunSession::PublishMetrics(trace::MetricsRegistry& registry) const {
  const SessionStats s = stats();
  registry.GetCounter("session/cold_runs").Set(static_cast<int64_t>(s.cold_runs));
  registry.GetCounter("session/warm_runs").Set(static_cast<int64_t>(s.warm_runs));
  registry.GetCounter("plan_cache/hits").Set(static_cast<int64_t>(s.plan.hits));
  registry.GetCounter("plan_cache/misses").Set(static_cast<int64_t>(s.plan.misses));
  registry.GetCounter("plan_cache/evictions").Set(static_cast<int64_t>(s.plan.evictions));
  registry.GetCounter("plan_cache/size").Set(static_cast<int64_t>(cache_.size()));
  registry.GetCounter("workspace_pool/allocations")
      .Set(static_cast<int64_t>(s.pool.allocations));
  registry.GetCounter("workspace_pool/reuses").Set(static_cast<int64_t>(s.pool.reuses));
  registry.GetCounter("workspace_pool/bytes_allocated")
      .Set(static_cast<int64_t>(s.pool.bytes_allocated));
  registry.GetCounter("workspace_pool/high_water_bytes")
      .Set(static_cast<int64_t>(s.pool.high_water_bytes));
  registry.GetCounter("workspace_pool/outstanding").Set(s.pool.outstanding);
}

void PublishRunMetrics(const RunResult& result, const DeviceConfig& device_config,
                       trace::MetricsRegistry& registry) {
  for (const LayerRecord& layer : result.layers) {
    const std::string prefix = "engine/layer" + std::to_string(layer.conv_index) + "/";
    registry.GetGauge(prefix + "padding_ratio").Set(layer.cycles.PaddingOverhead());
    registry.GetGauge(prefix + "launches").Set(static_cast<double>(layer.cycles.launches));
    registry.GetGauge(prefix + "gemm_kernels")
        .Set(static_cast<double>(layer.cycles.gemm_kernels));
    registry.GetGauge(prefix + "sim_ms")
        .Set(device_config.CyclesToMillis(layer.cycles.TotalCycles()));
  }
  registry.GetGauge("engine/run/padding_ratio").Set(result.total.PaddingOverhead());
  registry.GetGauge("engine/run/launches").Set(static_cast<double>(result.total.launches));
  registry.GetGauge("engine/run/sim_ms")
      .Set(device_config.CyclesToMillis(result.total.TotalCycles()));
}

std::vector<RunResult> Engine::RunBatch(std::span<const PointCloud> batch) {
  MINUET_CHECK(!batch.empty());
  for (const Instr& instr : network_.instrs) {
    MINUET_CHECK(instr.op != Instr::Op::kGlobalAvgPool && instr.op != Instr::Op::kLinear)
        << "RunBatch does not support pooling heads (they would mix clouds)";
  }

  // Spacing: larger than any coordinate extent plus the deepest kernel reach,
  // so no window can cross cloud boundaries. Downsampling only coarsens the
  // lattice, never moves points past their cloud's span.
  int32_t max_extent = 1;
  const int64_t c = batch[0].channels();
  int64_t total_points = 0;
  for (const PointCloud& cloud : batch) {
    MINUET_CHECK_EQ(cloud.channels(), c);
    total_points += cloud.num_points();
    for (const Coord3& p : cloud.coords) {
      max_extent = std::max({max_extent, std::abs(p.x), std::abs(p.y), std::abs(p.z)});
    }
  }
  // Round the pitch to a large power of two so downsampled cloud origins stay
  // on their own pitch multiples at every stride level.
  int64_t pitch64 = 1;
  while (pitch64 < static_cast<int64_t>(max_extent) * 2 + 4096) {
    pitch64 *= 2;
  }
  MINUET_CHECK_LT(pitch64 * static_cast<int64_t>(batch.size()), int64_t{kCoordMax})
      << "batch too large for the coordinate lattice";
  const int32_t pitch = static_cast<int32_t>(pitch64);

  PointCloud fused;
  fused.coords.reserve(static_cast<size_t>(total_points));
  fused.features = FeatureMatrix(total_points, c);
  int64_t row = 0;
  for (size_t b = 0; b < batch.size(); ++b) {
    int32_t shift = static_cast<int32_t>(b) * pitch;
    for (const Coord3& p : batch[b].coords) {
      fused.coords.push_back(Coord3{p.x + shift, p.y, p.z});
    }
    for (int64_t i = 0; i < batch[b].num_points(); ++i, ++row) {
      auto src = batch[b].features.Row(i);
      auto dst = fused.features.Row(row);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  RunResult fused_result = Run(fused);

  // Split outputs back per cloud by x-range and undo the shift. Outputs are
  // key-sorted, so each cloud's rows are contiguous.
  std::vector<RunResult> results(batch.size());
  std::vector<int64_t> counts(batch.size(), 0);
  auto cloud_of = [&](const Coord3& q) {
    int32_t b = FloorDiv(q.x + pitch / 2, pitch);
    MINUET_CHECK(b >= 0 && b < static_cast<int32_t>(batch.size()))
        << "output coordinate outside every batch slot";
    return static_cast<size_t>(b);
  };
  for (const Coord3& q : fused_result.coords) {
    ++counts[cloud_of(q)];
  }
  for (size_t b = 0; b < batch.size(); ++b) {
    results[b].features = FeatureMatrix(counts[b], fused_result.features.cols());
    results[b].coords.reserve(static_cast<size_t>(counts[b]));
    // Batch-level stats are shared: attribute proportionally by output rows.
    results[b].total = fused_result.total;
  }
  std::vector<int64_t> cursor(batch.size(), 0);
  for (size_t i = 0; i < fused_result.coords.size(); ++i) {
    Coord3 q = fused_result.coords[i];
    size_t b = cloud_of(q);
    results[b].coords.push_back(
        Coord3{q.x - static_cast<int32_t>(b) * pitch, q.y, q.z});
    auto src = fused_result.features.Row(static_cast<int64_t>(i));
    auto dst = results[b].features.Row(cursor[b]++);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return results;
}

}  // namespace minuet
