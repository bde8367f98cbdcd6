// Pins the exact tiles Engine::Autotune picks (Algorithm 2) on fixed samples,
// so a change to how the tuner walks the network's coordinate flow cannot
// silently move a layer's Gather/Scatter tile. Also checks that tuning runs
// on its own scratch device and leaves the engine's device untouched.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

using Tiles = std::vector<std::pair<int, int>>;

PointCloud Sample(DatasetKind kind, int64_t points, uint64_t seed) {
  GeneratorConfig gen;
  gen.target_points = points;
  gen.channels = 4;
  gen.seed = seed;
  return GenerateCloud(kind, gen);
}

Instr ConvInstr(int kernel_size, int stride, int64_t c_in, int64_t c_out) {
  Instr instr;
  instr.op = Instr::Op::kConv;
  instr.conv = ConvParams{kernel_size, stride, false, c_in, c_out};
  return instr;
}

Instr PoolInstr(Instr::Op op, int kernel_size, int stride) {
  Instr instr;
  instr.op = op;
  instr.conv.kernel_size = kernel_size;
  instr.conv.stride = stride;
  return instr;
}

// Every coordinate-flow kind the tuner walks: strided and stride-1 pooling,
// a transposed conv back to the root, and a generative conv.
Network PoolingNet() {
  Network net;
  net.name = "pool_flow";
  net.in_channels = 4;
  net.instrs.push_back(ConvInstr(3, 1, 4, 16));
  net.instrs.push_back(PoolInstr(Instr::Op::kMaxPool, 2, 2));
  net.instrs.push_back(ConvInstr(3, 1, 16, 32));
  net.instrs.push_back(PoolInstr(Instr::Op::kAvgPool, 3, 1));
  Instr up = ConvInstr(2, 2, 32, 24);
  up.conv.transposed = true;
  net.instrs.push_back(up);
  Instr gen = ConvInstr(3, 1, 24, 8);
  gen.conv.generative = true;
  net.instrs.push_back(gen);
  return net;
}

struct KernelSnapshot {
  int64_t launches = 0;
  double cycles = 0.0;
  std::map<std::string, std::pair<int64_t, double>> per_kernel;

  bool operator==(const KernelSnapshot&) const = default;
};

KernelSnapshot Snapshot(const Device& device) {
  KernelSnapshot snap;
  snap.launches = device.totals().num_launches;
  snap.cycles = device.totals().cycles;
  for (const auto& [name, stats] : device.kernel_aggregates()) {
    snap.per_kernel[name] = {stats.num_launches, stats.cycles};
  }
  return snap;
}

// Tunes a fresh Minuet engine (RTX 3090, deterministic addressing) on
// `sample` and returns its tiles, after checking that the engine's own
// device saw no launch from the tuner.
Tiles TunedTiles(const Network& net, const PointCloud& sample) {
  DeviceConfig device = MakeRtx3090();
  device.deterministic_addressing = true;
  EngineConfig config;
  config.functional = false;
  Engine engine(config, device);
  engine.Prepare(net, 7);
  engine.Run(sample);  // non-empty aggregates, so "untouched" means something
  const KernelSnapshot before = Snapshot(engine.device());
  EXPECT_GT(before.launches, 0);
  EXPECT_GT(engine.Autotune(sample), 0.0);
  EXPECT_EQ(Snapshot(engine.device()), before) << "Autotune launched on the engine's device";
  return engine.layer_tiles();
}

TEST(AutotunePinTest, TinyUNetOnS3dis) {
  const Tiles expected = {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {4, 4}, {1, 1}, {1, 1}, {1, 1}, {4, 4},
                           {1, 1}, {1, 1}, {1, 1}, {4, 4}, {1, 1}, {1, 1}, {1, 1}, {4, 4}};
  EXPECT_EQ(TunedTiles(MakeTinyUNet(4), Sample(DatasetKind::kS3dis, 4000, 1)), expected);
}

TEST(AutotunePinTest, MinkUNet42OnKitti) {
  const Tiles expected = {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1},
                           {1, 1}, {4, 4}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {4, 4}, {1, 1},
                           {1, 1}, {1, 1}, {1, 1}, {1, 1}, {4, 4}, {1, 1}, {1, 1}, {1, 1}, {2, 1},
                           {1, 1}, {4, 4}, {1, 1}, {1, 1}, {1, 1}, {4, 4}, {1, 1}, {1, 1}, {1, 1},
                           {4, 4}, {1, 1}, {1, 1}, {1, 1}, {4, 4}, {4, 4}};
  EXPECT_EQ(TunedTiles(MakeMinkUNet42(4), Sample(DatasetKind::kKitti, 400, 3)), expected);
}

TEST(AutotunePinTest, PoolingNetworkOnS3dis) {
  const Tiles expected = {{1, 1}, {1, 1}, {1, 1}, {1, 1}};
  EXPECT_EQ(TunedTiles(PoolingNet(), Sample(DatasetKind::kS3dis, 1500, 5)), expected);
}

}  // namespace
}  // namespace minuet
