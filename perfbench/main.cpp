// Benchmark program for the Minuet simulator: three workloads, two clocks.
//
//   perfbench --workload cold_frames|serve_unet42|lidar_stream --seed N
//             --seconds S --trace 0|1 [--small] [--trace-dir DIR]
//
// Every workload drives the system through its public entry points only
// (RunSession::Run, serve::FleetScheduler::Run, serve::StreamScheduler::Run,
// Engine::Prepare/Autotune and the data generators) and reads simulated
// numbers from what those calls return. Host numbers come from timing those
// calls here.
//
// --trace 0 sets up the workload three times (set-up time is the median),
// then runs one untraced pass of the work that takes about S seconds on the
// reference machine and prints the end-to-end metrics. --trace 1 runs one untraced pass in a forked child and then a
// second, freshly set up pass over exactly the same work with trace::Tracer
// installed; it compares the two and builds the per-layer ledger from the
// traced spans, which it also writes to DIR as a Chrome trace.
//
// Checks (any failure makes the exit code non-zero):
//   * layer sums: every simulated kernel lands in exactly one layer bucket by
//     its name prefix, and per request the buckets minus the stream-pool GEMM
//     overlap equal the request's simulated total;
//   * outputs: one small request replayed functionally matches the
//     MinkowskiEngine-style engine (independent hash map, per-offset
//     dataflow, same weights) within kOutputTolerance, and its warm replay is
//     bit-identical to its cold run;
//   * serving identity: offered == completed + shed + dropped;
//   * trace neutrality (--trace 1): request counts and kernel launches per
//     layer bucket equal the untraced pass's (cycle drift is only reported;
//     see SameSimulation).
//
// The last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The lines before it list every metric with unit, clock, sample
// count and percentile.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/generators.h"
#include "src/data/sequence.h"
#include "src/engine/engine.h"
#include "src/engine/network.h"
#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/stream.h"
#include "src/trace/trace.h"
#include "src/util/summary.h"
#include "src/util/timer.h"

namespace minuet {
namespace {

// Functional replay vs the MinkowskiEngine-style engine: max |a - b| must not
// exceed this share of max(1, max |reference|).
constexpr double kOutputTolerance = 1e-3;
// Layer-sum reconciliation, relative to the request's simulated cycles.
constexpr double kSumTolerance = 1e-9;
constexpr int kSetupRepeats = 3;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- buckets

enum Bucket {
  kSort,
  kMap,
  kMapDelta,
  kMetadata,
  kBuffer,
  kGather,
  kGemm,
  kScatter,
  kElementwise,
  kCoords,
  kDenseGemm,
  kNumBuckets
};

// Kernel-name prefix -> layer bucket. A kernel matching none of these fails
// the layer-sum check.
constexpr std::array<std::pair<std::string_view, Bucket>, 13> kPrefixes = {{
    {"sort/", kSort},
    {"map/build/", kMap},
    {"map/query/", kMap},
    {"map/compact/", kMap},
    {"map/delta/", kMapDelta},
    {"gmas/metadata/", kMetadata},
    {"gmas/buffer/", kBuffer},
    {"gmas/gather/", kGather},
    {"gmas/gemm/", kGemm},
    {"gmas/scatter/", kScatter},
    {"engine/elementwise/", kElementwise},
    {"engine/coords/", kCoords},
    {"engine/gemm/", kDenseGemm},
}};

std::optional<Bucket> BucketOf(std::string_view kernel) {
  for (const auto& [prefix, bucket] : kPrefixes) {
    if (kernel.substr(0, prefix.size()) == prefix) {
      return bucket;
    }
  }
  return std::nullopt;
}

bool IsGmas(int b) { return b >= kMetadata && b <= kScatter; }

struct BucketSums {
  std::array<double, kNumBuckets> cycles{};
  std::array<double, kNumBuckets> sim_ms{};
  std::array<double, kNumBuckets> host_ms{};
  std::array<int64_t, kNumBuckets> launches{};
  std::array<uint64_t, kNumBuckets> l2_hits{};
  std::array<uint64_t, kNumBuckets> l2_misses{};
  std::array<uint64_t, kNumBuckets> dram_bytes{};

  void Add(Bucket b, const KernelStats& s, double ms, double host) {
    cycles[b] += s.cycles;
    sim_ms[b] += ms;
    host_ms[b] += host;
    launches[b] += s.num_launches;
    l2_hits[b] += s.l2_hits;
    l2_misses[b] += s.l2_misses;
    dram_bytes[b] += s.dram_bytes;
  }
  void operator+=(const BucketSums& o) {
    for (int b = 0; b < kNumBuckets; ++b) {
      cycles[b] += o.cycles[b];
      sim_ms[b] += o.sim_ms[b];
      host_ms[b] += o.host_ms[b];
      launches[b] += o.launches[b];
      l2_hits[b] += o.l2_hits[b];
      l2_misses[b] += o.l2_misses[b];
      dram_bytes[b] += o.dram_bytes[b];
    }
  }
  double TotalCycles() const {
    double t = 0.0;
    for (double c : cycles) t += c;
    return t;
  }
};

// Kernel aggregates of one device, copied so a later snapshot can be diffed.
using KernelSnapshot = std::map<std::string, KernelStats>;

// Adds (after - before) per bucket into `out`; unknown kernel names are
// reported in `unknown`.
void DiffSnapshots(const KernelSnapshot& before, const KernelSnapshot& after,
                   const DeviceConfig& config, BucketSums& out, std::string& unknown) {
  for (const auto& [name, stats] : after) {
    KernelStats d = stats;
    if (auto it = before.find(name); it != before.end()) {
      d.cycles -= it->second.cycles;
      d.num_launches -= it->second.num_launches;
      d.l2_hits -= it->second.l2_hits;
      d.l2_misses -= it->second.l2_misses;
      d.dram_bytes -= it->second.dram_bytes;
    }
    if (d.num_launches == 0) {
      continue;
    }
    std::optional<Bucket> b = BucketOf(name);
    if (!b) {
      unknown += name + " ";
      continue;
    }
    out.Add(*b, d, config.CyclesToMillis(d.cycles), 0.0);
  }
}

// ---------------------------------------------------------------- checks

struct Checks {
  std::vector<std::string> failures;
  int64_t output_checks = 0;
  int64_t output_failures = 0;

  void Fail(std::string what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures.push_back(std::move(what));
  }
  bool ok() const { return failures.empty(); }
};

bool Near(double a, double b) {
  return std::fabs(a - b) <= kSumTolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Functional replay of one small request: Minuet cold vs warm (bit-identical)
// and Minuet vs the Minkowski engine on the same weights (within tolerance).
void CheckOutputs(const char* workload, const Network& net, const DeviceConfig& device,
                  uint64_t weight_seed, const PointCloud& cloud, Checks& checks) {
  EngineConfig minuet_cfg;
  Engine minuet(minuet_cfg, device);
  minuet.Prepare(net, weight_seed);
  RunSession session(minuet);
  RunResult cold = session.Run(cloud);
  RunResult warm = session.Run(cloud);

  EngineConfig ref_cfg;
  ref_cfg.kind = EngineKind::kMinkowski;
  Engine reference(ref_cfg, device);
  reference.Prepare(net, weight_seed);
  RunResult ref = reference.Run(cloud);

  checks.output_checks += 2;
  const bool warm_same =
      session.stats().warm_runs == 1 && warm.coords == cold.coords &&
      warm.features.rows() == cold.features.rows() &&
      warm.features.cols() == cold.features.cols() &&
      std::memcmp(warm.features.data(), cold.features.data(), cold.features.size_bytes()) == 0;
  if (!warm_same) {
    ++checks.output_failures;
    checks.Fail(std::string(workload) + ": warm replay is not bit-identical to its cold run");
  }
  bool ref_ok = ref.coords == cold.coords && ref.features.rows() == cold.features.rows() &&
                ref.features.cols() == cold.features.cols();
  double diff = 0.0;
  double scale = 1.0;
  if (ref_ok) {
    diff = MaxAbsDiff(cold.features, ref.features);
    for (int64_t i = 0; i < ref.features.rows() * ref.features.cols(); ++i) {
      scale = std::max(scale, static_cast<double>(std::fabs(ref.features.data()[i])));
    }
    ref_ok = diff <= kOutputTolerance * scale;
  }
  std::printf("check %s output: %lld points, max|minuet-minkowski| = %.3g (limit %.3g), "
              "warm replay %s\n",
              workload, static_cast<long long>(cloud.num_points()), diff,
              kOutputTolerance * scale, warm_same ? "bit-identical" : "DIFFERS");
  if (!ref_ok) {
    ++checks.output_failures;
    checks.Fail(std::string(workload) + ": functional output differs from the Minkowski engine");
  }
}

// ---------------------------------------------------------------- passes

// One run of the device on behalf of one request, in dispatch order.
struct RunRef {
  int device = 0;
  int64_t batch = -1;  // dispatched batch the run belongs to
  double cycles = 0.0;  // the request's simulated cycles as the system reports them
};

// CPU time of the whole process, all threads. Host throughput and set-up
// time are measured on this clock: on an idle machine it equals the wall time
// of this single-threaded process, but it leaves out the time the process
// waits for a core while other tenants of a shared host run, which wall time
// counts and which varies from run to run with their load.
class CpuTimer {
 public:
  CpuTimer() : start_(Now()) {}
  double ElapsedSeconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

struct PassResult {
  int64_t units = 0;  // requests (cold_frames) or scheduler passes
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t dropped = 0;
  int64_t within_slo = 0;
  std::vector<double> latency_ms;  // completed requests, simulated / serving clock
  std::vector<double> queue_ms;    // serving clock
  double sim_duration_s = 0.0;     // denominator of goodput
  double host_s = 0.0;             // host time inside the timed public calls
  // Completions per host CPU second (CpuTimer) of each repeating unit of work
  // (a cycle of frame sizes, or one scheduler pass); host_req_per_s is their
  // median.
  std::vector<double> unit_rates;
  double data_host_ms = 0.0;       // data generation outside the timed calls
  int64_t batches = 0;
  double busy_us = 0.0;            // summed replica service time
  double replica_us = 0.0;         // summed duration x replicas
  int64_t frames_incremental = 0;
  std::vector<uint64_t> plan_hits, plan_misses;  // per replica
  uint64_t pool_reuses = 0, pool_allocations = 0;
  std::vector<RunRef> runs;
  std::vector<double> batch_serial_cycles;  // per dispatched batch
  BucketSums kernels;                       // from device aggregates
  std::string problems;  // layer-sum and serving-identity failures
  int64_t padded_rows = 0, actual_rows = 0;  // cold_frames only (from RunResult)
  std::vector<double> run_ms;  // per request simulated ms, dispatch order
};

struct SessionCounters {
  uint64_t hits = 0, misses = 0, reuses = 0, allocations = 0;
};

SessionCounters Counters(const RunSession& s) {
  SessionStats st = s.stats();
  return {st.plan.hits, st.plan.misses, st.pool.reuses, st.pool.allocations};
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // Builds engines, inputs and warm state from scratch; returns data
  // generation host ms spent inside it.
  virtual double Setup(uint64_t seed) = 0;
  // Number of work units (requests for cold_frames, scheduler passes for the
  // others) that take about `seconds` of host time on the reference machine
  // (a 4-core x86 box, Release build). The work, not the wall time, is fixed
  // so that a seed's simulated numbers do not depend on how fast the host
  // happens to run.
  virtual int64_t UnitsFor(double seconds) const = 0;
  virtual PassResult Run(int64_t units) = 0;
  virtual void CheckOutputs(uint64_t seed, Checks& checks) = 0;

  std::vector<Engine*> engines() const {
    std::vector<Engine*> out;
    for (const auto& e : engines_) out.push_back(e.get());
    return out;
  }

 protected:
  // Plan-cache and workspace-pool counters of each replica's sessions.
  virtual std::vector<SessionCounters> ReplicaCounters() = 0;

  struct PassStart {
    std::vector<SessionCounters> counters;
    std::vector<KernelSnapshot> kernels;
  };
  PassStart Begin() {
    PassStart start{ReplicaCounters(), {}};
    for (const auto& e : engines_) start.kernels.push_back(e->device().kernel_aggregates());
    return start;
  }
  // Adds the pass's kernel buckets and session counter deltas to `r`.
  void Finish(const PassStart& start, PassResult& r) {
    for (size_t i = 0; i < engines_.size(); ++i) {
      const Device& device = engines_[i]->device();
      DiffSnapshots(start.kernels[i], device.kernel_aggregates(), device.config(), r.kernels,
                    r.problems);
    }
    const std::vector<SessionCounters> end = ReplicaCounters();
    for (size_t i = 0; i < end.size(); ++i) {
      r.plan_hits.push_back(end[i].hits - start.counters[i].hits);
      r.plan_misses.push_back(end[i].misses - start.counters[i].misses);
      r.pool_reuses += end[i].reuses - start.counters[i].reuses;
      r.pool_allocations += end[i].allocations - start.counters[i].allocations;
    }
  }

  std::vector<std::unique_ptr<Engine>> engines_;
};

std::unique_ptr<Engine> MakeEngine(const Network& net, DeviceConfig device, uint64_t seed) {
  EngineConfig config;
  config.functional = false;  // timing-only: charge kernels, skip arithmetic
  device.deterministic_addressing = true;
  auto engine = std::make_unique<Engine>(config, device);
  engine->Prepare(net, seed);
  return engine;
}

// cold_frames: closed loop, one client, every request a distinct frame.
class ColdFrames : public Workload {
 public:
  explicit ColdFrames(bool small) : small_(small) {}
  const char* name() const override { return "cold_frames"; }

  double Setup(uint64_t seed) override {
    seed_ = seed;
    session_.reset();
    engines_.clear();
    engines_.push_back(MakeEngine(net_, MakeRtx3090(), seed));
    WallTimer data;
    PointCloud sample = Frame(-1);
    const double data_ms = data.ElapsedMillis();
    engines_[0]->Autotune(sample);
    session_ = std::make_unique<RunSession>(*engines_[0]);
    session_->Run(sample);  // warm-up: faults in pools and code paths
    next_ = 0;
    return data_ms;
  }

  int64_t UnitsFor(double seconds) const override {
    return kCycle * static_cast<int64_t>(std::ceil(seconds / kCycleSeconds));
  }

  PassResult Run(int64_t units) override {
    PassResult r;
    const Device& device = engines_[0]->device();
    const PassStart start = Begin();
    double cycle_cpu_s = 0.0;
    while (r.units < units) {
      const int64_t id = next_++;
      WallTimer data;
      PointCloud cloud = Frame(id);
      r.data_host_ms += data.ElapsedMillis();
      KernelSnapshot k0 = device.kernel_aggregates();
      WallTimer host;
      CpuTimer cpu;
      RunResult out;
      {
        trace::Span span("bench/request", "bench");
        span.Attr("request_id", id);
        out = session_->Run(cloud);
      }
      r.host_s += host.ElapsedSeconds();
      cycle_cpu_s += cpu.ElapsedSeconds();
      if ((r.units + 1) % kCycle == 0) {
        r.unit_rates.push_back(static_cast<double>(kCycle) / cycle_cpu_s);
        cycle_cpu_s = 0.0;
      }
      // Per-request layer sums from the device's own aggregates: every
      // non-GEMM bucket is reported unchanged, GEMM minus the stream-pool
      // overlap.
      BucketSums k;
      DiffSnapshots(k0, device.kernel_aggregates(), device.config(), k, r.problems);
      const double gemm_kernels = k.cycles[kGemm] + k.cycles[kDenseGemm];
      const double overlap = gemm_kernels - out.total.gemm;
      const double rest = k.TotalCycles() - gemm_kernels;
      if (!Near(rest, out.total.TotalCycles() - out.total.gemm) || overlap < -1e-6 ||
          overlap > gemm_kernels) {
        r.problems += "[request " + std::to_string(id) + " does not reconcile] ";
      }
      const double ms = out.TotalMillis(device.config());
      ++r.units;
      ++r.offered;
      ++r.completed;
      r.within_slo += ms <= kSloMs ? 1 : 0;
      r.latency_ms.push_back(ms);
      r.queue_ms.push_back(0.0);
      r.run_ms.push_back(ms);
      r.sim_duration_s += ms * 1e-3;
      r.runs.push_back({0, r.units - 1, out.total.TotalCycles()});
      r.batch_serial_cycles.push_back(out.total.TotalCycles());
      ++r.batches;
      r.busy_us += ms * 1e3;
      r.replica_us += ms * 1e3;
      r.padded_rows += out.total.padded_rows;
      r.actual_rows += out.total.actual_rows;
    }
    Finish(start, r);
    return r;
  }

  void CheckOutputs(uint64_t seed, Checks& checks) override {
    GeneratorConfig gen;
    gen.target_points = 1500;
    gen.channels = net_.in_channels;
    gen.seed = Mix(seed, 99);
    minuet::CheckOutputs(name(), net_, MakeRtx3090(), seed,
                         GenerateCloud(DatasetKind::kKitti, gen), checks);
  }

 private:
  static constexpr double kSloMs = 3.0;
  static constexpr int64_t kCycle = 4;
  static constexpr double kCycleSeconds = 3.0;

  // Request `id` >= 0 is a distinct seeded frame. Sizes repeat in cycles of
  // kSizes and a run is whole cycles, so every run serves the same mix of
  // sizes; kitti and s3dis swap places every cycle. id -1 is the autotune /
  // warm-up sample.
  PointCloud Frame(int64_t id) const {
    static constexpr int64_t kSizes[kCycle] = {8000, 14000, 22000, 30000};
    GeneratorConfig gen;
    gen.channels = net_.in_channels;
    gen.seed = Mix(seed_, static_cast<uint64_t>(id + 2));
    if (id < 0) {
      gen.target_points = small_ ? 1000 : kSizes[0];
      return GenerateCloud(DatasetKind::kKitti, gen);
    }
    gen.target_points = kSizes[id % kCycle] / (small_ ? 8 : 1);
    const bool kitti = (id % kCycle + id / kCycle) % 2 == 0;
    return GenerateCloud(kitti ? DatasetKind::kKitti : DatasetKind::kS3dis, gen);
  }

  std::vector<SessionCounters> ReplicaCounters() override { return {Counters(*session_)}; }

  bool small_;
  Network net_ = MakeTinyUNet(4);
  uint64_t seed_ = 1;
  std::unique_ptr<RunSession> session_;
  int64_t next_ = 0;
};

// serve_unet42: open-loop Poisson arrivals on a two-replica fleet serving
// MinkUNet42 from a few repeated frames.
class ServeUnet42 : public Workload {
 public:
  explicit ServeUnet42(bool small) : small_(small) {}
  const char* name() const override { return "serve_unet42"; }

  double Setup(uint64_t seed) override {
    seed_ = seed;
    fleet_.reset();
    engines_.clear();
    WallTimer data;
    GeneratorConfig gen;
    gen.target_points = kAutotunePoints;
    gen.channels = net_.in_channels;
    gen.seed = Mix(seed, 1);
    PointCloud sample = GenerateCloud(DatasetKind::kKitti, gen);
    const double data_ms = data.ElapsedMillis();
    for (const DeviceConfig& device : {MakeRtx3090(), MakeA100()}) {
      engines_.push_back(MakeEngine(net_, device, seed));
      engines_.back()->Autotune(sample);
    }
    serve::FleetConfig config;
    config.routing = serve::RoutingPolicy::kLeastLoaded;
    config.scheduler.max_batch_size = 4;
    config.scheduler.queue_capacity = 64;
    config.scheduler.max_queue_delay_us = 1000.0;
    config.scheduler.slo_us = kSloUs;
    fleet_ = std::make_unique<serve::FleetScheduler>(engines(), config);
    // Warm-up: every frame once on every replica, all arriving at t=0, so
    // least-loaded routing alternates replicas and each one caches each plan.
    std::vector<serve::Request> warm;
    for (size_t f = 0; f < Shapes().size(); ++f) {
      for (int copy = 0; copy < 2; ++copy) {
        serve::Request req;
        req.id = static_cast<int64_t>(warm.size());
        req.dataset = Shapes()[f].dataset;
        req.points = Shapes()[f].points;
        req.cloud_seed = Shapes()[f].cloud_seed;
        warm.push_back(req);
      }
    }
    fleet_->Run(warm);
    pass_ = 0;
    return data_ms;
  }

  int64_t UnitsFor(double seconds) const override {
    return static_cast<int64_t>(std::ceil(seconds / kPassSeconds));
  }

  PassResult Run(int64_t units) override {
    PassResult r;
    const PassStart start = Begin();
    while (r.units < units) {
      serve::TraceConfig trace;
      trace.process = serve::ArrivalProcess::kPoisson;
      trace.rate_rps = kRateRps;
      trace.num_requests = small_ ? 3 : kRequestsPerPass;
      // The arrival schedule is the same in every run (seeded by the pass
      // index only); the run seed picks the frames' contents.
      trace.seed = Mix(kArrivalSeed, static_cast<uint64_t>(pass_));
      trace.shapes = Shapes();
      WallTimer data;
      std::vector<serve::Request> arrivals = serve::GenerateArrivalTrace(trace);
      r.data_host_ms += data.ElapsedMillis();
      WallTimer host;
      CpuTimer cpu;
      serve::FleetResult out;
      {
        trace::Span span("bench/fleet_run", "bench");
        span.Attr("pass", pass_);
        span.Attr("first_request_id", arrivals.empty() ? int64_t{-1} : arrivals.front().id);
        out = fleet_->Run(std::move(arrivals));
      }
      r.host_s += host.ElapsedSeconds();
      r.unit_rates.push_back(static_cast<double>(out.summary.fleet.completed) /
                             cpu.ElapsedSeconds());
      ++pass_;
      ++r.units;
      Account(out, r);
    }
    Finish(start, r);
    return r;
  }

  void CheckOutputs(uint64_t seed, Checks& checks) override {
    GeneratorConfig gen;
    gen.target_points = 400;
    gen.channels = net_.in_channels;
    gen.seed = Mix(seed, 99);
    minuet::CheckOutputs(name(), net_, MakeA100(), seed, GenerateCloud(DatasetKind::kKitti, gen),
                         checks);
  }

 private:
  static constexpr int64_t kAutotunePoints = 400;
  static constexpr double kRateRps = 380.0;
  static constexpr double kSloUs = 25000.0;
  static constexpr int64_t kRequestsPerPass = 8;
  static constexpr double kPassSeconds = 5.0;
  static constexpr uint64_t kArrivalSeed = 5000;

  std::vector<serve::RequestShape> Shapes() const {
    std::vector<serve::RequestShape> shapes;
    const int64_t sizes[] = {2000, 2200, 2400};
    for (int64_t k = 0; k < 3; ++k) {
      serve::RequestShape s;
      s.dataset = DatasetKind::kKitti;
      s.points = small_ ? 600 + 100 * k : sizes[k];
      s.cloud_seed = Mix(seed_, 100 + static_cast<uint64_t>(k));
      shapes.push_back(s);
    }
    return shapes;
  }

  void Account(const serve::FleetResult& out, PassResult& r) {
    for (const serve::RequestRecord& rec : out.requests) {
      ++r.offered;
      if (rec.shed) {
        ++r.shed;
        continue;
      }
      ++r.completed;
      r.latency_ms.push_back(rec.LatencyUs() * 1e-3);
      r.queue_ms.push_back(rec.QueueUs() * 1e-3);
      r.within_slo += rec.LatencyUs() <= kSloUs ? 1 : 0;
    }
    if (out.summary.fleet.offered != out.summary.fleet.completed + out.summary.fleet.shed) {
      r.problems += "[fleet identity offered != completed + shed] ";
    }
    r.sim_duration_s += out.summary.fleet.duration_us * 1e-6;
    r.replica_us += out.summary.fleet.duration_us * static_cast<double>(fleet_->num_replicas());
    const int64_t base = static_cast<int64_t>(r.batch_serial_cycles.size());
    for (const serve::BatchRecord& b : out.batches) {
      ++r.batches;
      r.busy_us += b.completion_us - b.dispatch_us;
      r.batch_serial_cycles.push_back(b.serial_cycles);
    }
    // Requests in dispatch order: batch by batch, and within a batch in id
    // order, which is the FIFO admission order the batch runs them in.
    std::vector<const serve::RequestRecord*> served;
    for (const serve::RequestRecord& rec : out.requests) {
      if (!rec.shed) served.push_back(&rec);
    }
    std::stable_sort(served.begin(), served.end(), [](auto* a, auto* b) {
      return a->batch_id < b->batch_id;
    });
    for (const serve::RequestRecord* rec : served) {
      r.runs.push_back({rec->device, base + rec->batch_id, rec->service_cycles});
      const DeviceConfig& dc = engines_[static_cast<size_t>(rec->device)]->device().config();
      r.run_ms.push_back(dc.CyclesToMillis(rec->service_cycles));
    }
  }

  std::vector<SessionCounters> ReplicaCounters() override {
    std::vector<SessionCounters> out;
    for (size_t i = 0; i < fleet_->num_replicas(); ++i) {
      out.push_back(Counters(fleet_->replica(i).session()));
    }
    return out;
  }

  bool small_;
  Network net_ = MakeMinkUNet42(4);
  uint64_t seed_ = 1;
  std::unique_ptr<serve::FleetScheduler> fleet_;
  int64_t pass_ = 0;
};

// lidar_stream: two periodic LiDAR streams on the incremental-map path.
class LidarStream : public Workload {
 public:
  explicit LidarStream(bool small) : small_(small) {}
  const char* name() const override { return "lidar_stream"; }

  double Setup(uint64_t seed) override {
    seed_ = seed;
    scheduler_.reset();
    engines_.clear();
    WallTimer data;
    Sequence warm = MakeSequence(Mix(seed, 1), 1);
    Sequence sample = MakeSequence(Mix(seed, 2), 1, small_ ? 1000 : kAutotunePoints);
    const double data_ms = data.ElapsedMillis();
    for (const DeviceConfig& device : {MakeRtx3090(), MakeA100()}) {
      engines_.push_back(MakeEngine(net_, device, seed));
      engines_.back()->Autotune(sample.frames[0].cloud);
    }
    serve::StreamServeConfig config;
    config.num_streams = 2;
    config.frame_period_us = kPeriodUs;
    config.frame_deadline_us = kDeadlineUs;
    config.drop_slo = 0.05;
    config.incremental = true;
    scheduler_ = std::make_unique<serve::StreamScheduler>(engines(), config);
    scheduler_->Run(warm);  // warm-up pass: one frame per stream
    pass_ = 0;
    return data_ms;
  }

  int64_t UnitsFor(double seconds) const override {
    return static_cast<int64_t>(std::ceil(seconds / kPassSeconds));
  }

  PassResult Run(int64_t units) override {
    PassResult r;
    const PassStart start = Begin();
    while (r.units < units) {
      WallTimer data;
      Sequence seq = MakeSequence(Mix(seed_, 7000 + static_cast<uint64_t>(pass_)),
                                  small_ ? 3 : kFramesPerPass);
      r.data_host_ms += data.ElapsedMillis();
      WallTimer host;
      CpuTimer cpu;
      serve::StreamServeResult out;
      {
        trace::Span span("bench/stream_run", "bench");
        span.Attr("pass", pass_);
        out = scheduler_->Run(seq);
      }
      r.host_s += host.ElapsedSeconds();
      r.unit_rates.push_back(static_cast<double>(out.summary.frames_completed) /
                             cpu.ElapsedSeconds());
      ++pass_;
      ++r.units;
      Account(out, r);
    }
    Finish(start, r);
    return r;
  }

  void CheckOutputs(uint64_t seed, Checks& checks) override {
    Sequence seq = MakeSequence(Mix(seed, 99), 1, small_ ? 1000 : 1500);
    minuet::CheckOutputs(name(), net_, MakeRtx3090(), seed, seq.frames[0].cloud, checks);
  }

 private:
  static constexpr double kPeriodUs = 1200.0;
  static constexpr double kDeadlineUs = 2000.0;
  static constexpr int64_t kFramesPerPass = 5;
  static constexpr double kPassSeconds = 5.0;
  static constexpr int64_t kAutotunePoints = 4000;

  Sequence MakeSequence(uint64_t seed, int64_t frames, int64_t points = 0) const {
    SequenceConfig config;
    config.dataset = DatasetKind::kKitti;
    config.base_points = points > 0 ? points : (small_ ? 2000 : 8000);
    config.channels = net_.in_channels;
    config.num_frames = frames;
    config.seed = seed;
    config.churn_rate = 0.05;
    return GenerateSequence(config);
  }

  void Account(const serve::StreamServeResult& out, PassResult& r) {
    const serve::StreamServeSummary& s = out.summary;
    for (const serve::RequestRecord& rec : out.requests) {
      if (rec.shed) continue;
      r.latency_ms.push_back(rec.LatencyUs() * 1e-3);
      r.queue_ms.push_back(rec.QueueUs() * 1e-3);
      r.within_slo += rec.LatencyUs() <= out.config.frame_deadline_us ? 1 : 0;
    }
    r.offered += s.frames_offered;
    r.completed += s.frames_completed;
    r.dropped += s.frames_dropped;
    r.frames_incremental += s.frames_incremental;
    if (s.frames_offered != s.frames_completed + s.frames_dropped ||
        static_cast<int64_t>(out.requests.size()) != s.frames_offered) {
      r.problems += "[stream identity offered != completed + dropped] ";
    }
    r.sim_duration_s += s.serve.duration_us * 1e-6;
    r.replica_us += s.serve.duration_us * static_cast<double>(engines_.size());
    // One dispatched frame per batch, in dispatch order; the request carries
    // the same cycles as its batch.
    for (const serve::BatchRecord& b : out.batches) {
      ++r.batches;
      r.busy_us += b.completion_us - b.dispatch_us;
      r.batch_serial_cycles.push_back(b.serial_cycles);
      r.runs.push_back({b.device, static_cast<int64_t>(r.batch_serial_cycles.size()) - 1,
                        b.serial_cycles});
      const DeviceConfig& dc = engines_[static_cast<size_t>(b.device)]->device().config();
      r.run_ms.push_back(dc.CyclesToMillis(b.serial_cycles));
    }
  }

  // Streams are pinned to replica (stream % replicas); their sessions' counters
  // add up per replica.
  std::vector<SessionCounters> ReplicaCounters() override {
    std::vector<SessionCounters> out(engines_.size());
    for (size_t s = 0; s < scheduler_->num_streams(); ++s) {
      const SessionCounters c = Counters(scheduler_->stream_session(s).session());
      SessionCounters& d = out[s % out.size()];
      d.hits += c.hits;
      d.misses += c.misses;
      d.reuses += c.reuses;
      d.allocations += c.allocations;
    }
    return out;
  }

  bool small_;
  Network net_ = MakeTinyUNet(4);
  uint64_t seed_ = 1;
  std::unique_ptr<serve::StreamScheduler> scheduler_;
  int64_t pass_ = 0;
};

// ---------------------------------------------------------------- ledger

// Per-layer ledger built from the traced pass's spans.
struct Ledger {
  BucketSums buckets;            // cycles, sim ms (device clock), host ms per bucket
  double overlap_ms = 0.0;       // stream-pool GEMM saving (positive here)
  double request_sim_ms = 0.0;   // sum of request totals
  double orchestration_host_ms = 0.0;
  double loop_host_ms = 0.0;
  double kernel_host_ms = 0.0;
  double padded_rows = 0.0, actual_rows = 0.0;
  int64_t runs = 0;
};

double AttrNum(const trace::SpanRecord& s, std::string_view key) {
  for (const auto& [k, v] : s.attrs) {
    if (k == key) {
      if (const double* d = std::get_if<double>(&v)) return *d;
      if (const int64_t* i = std::get_if<int64_t>(&v)) return static_cast<double>(*i);
    }
  }
  return std::nan("");
}

// Attributes every kernel span to a request (its enclosing engine "run" span;
// kernels launched just before a run on its behalf — the sequence session's
// delta merge — attach to the next run), then checks per request that the
// buckets minus the GEMM overlap equal the run's simulated total and that
// runs match the dispatched batches the schedulers report.
Ledger BuildLedger(const trace::Tracer& tracer, const PassResult& pass,
                   const std::vector<Engine*>& engines, Checks& checks) {
  const std::vector<trace::SpanRecord>& spans = tracer.spans();
  const size_t n = spans.size();
  std::vector<int64_t> run_of(n, -1), layer_of(n, -1), next_run(n + 1, -1);
  for (size_t i = 0; i < n; ++i) {
    const trace::SpanRecord& s = spans[i];
    const int64_t p = s.parent;
    run_of[i] = s.category == "run" ? static_cast<int64_t>(i) : (p >= 0 ? run_of[p] : -1);
    layer_of[i] = s.category == "layer" ? static_cast<int64_t>(i) : (p >= 0 ? layer_of[p] : -1);
  }
  for (size_t i = n; i-- > 0;) {
    next_run[i] = spans[i].category == "run" ? static_cast<int64_t>(i) : next_run[i + 1];
  }
  std::vector<int64_t> run_spans;       // engine run spans, in dispatch order
  std::vector<int64_t> run_pos(n, -1);  // span -> position in run_spans
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].category == "run") {
      run_pos[i] = static_cast<int64_t>(run_spans.size());
      run_spans.push_back(static_cast<int64_t>(i));
    }
  }

  Ledger ledger;
  ledger.runs = static_cast<int64_t>(run_spans.size());
  if (run_spans.size() != pass.runs.size()) {
    checks.Fail("traced pass has " + std::to_string(run_spans.size()) + " engine runs, the " +
                "schedulers report " + std::to_string(pass.runs.size()));
    return ledger;
  }
  std::vector<BucketSums> per_run(run_spans.size());
  std::vector<double> run_kernel_host(run_spans.size(), 0.0);
  std::map<int64_t, double> layer_memset_bytes;
  std::string unknown;
  for (size_t i = 0; i < n; ++i) {
    const trace::SpanRecord& s = spans[i];
    if (s.category != "kernel") continue;
    const int64_t run = run_of[i] >= 0 ? run_of[i] : next_run[i + 1];
    std::optional<Bucket> b = BucketOf(s.name);
    if (run < 0 || !b) {
      unknown += s.name + " ";
      continue;
    }
    KernelStats k;
    k.cycles = AttrNum(s, "cycles");
    k.num_launches = 1;
    k.l2_hits = static_cast<uint64_t>(AttrNum(s, "l2_hits"));
    k.l2_misses = static_cast<uint64_t>(AttrNum(s, "l2_misses"));
    k.dram_bytes = static_cast<uint64_t>(AttrNum(s, "dram_bytes"));
    const size_t r = static_cast<size_t>(run_pos[static_cast<size_t>(run)]);
    const double host_ms = s.HostDurationUs() * 1e-3;
    per_run[r].Add(*b, k, s.SimDurationUs() * 1e-3, host_ms);
    ledger.kernel_host_ms += host_ms;
    if (run_of[i] >= 0) run_kernel_host[r] += host_ms;
    if (*b == kBuffer && layer_of[i] >= 0) {
      layer_memset_bytes[layer_of[i]] += AttrNum(s, "bytes_written");
    }
  }
  if (!unknown.empty()) {
    checks.Fail("kernels outside any layer bucket or request: " + unknown);
  }

  // Padding: each GMaS layer zero-fills an input and an output buffer of
  // buffer_rows = actual + padded rows; the layer span carries padded/actual.
  for (const auto& [layer, bytes] : layer_memset_bytes) {
    const trace::SpanRecord& s = spans[static_cast<size_t>(layer)];
    const double rows = bytes / ((AttrNum(s, "c_in") + AttrNum(s, "c_out")) * 4.0);
    const double actual = std::round(rows / (1.0 + AttrNum(s, "padding_ratio")));
    ledger.actual_rows += actual;
    ledger.padded_rows += rows - actual;
  }

  // Per-request reconciliation and batch matching.
  std::vector<double> batch_sum(pass.batch_serial_cycles.size(), 0.0);
  for (size_t r = 0; r < run_spans.size(); ++r) {
    const trace::SpanRecord& s = spans[static_cast<size_t>(run_spans[r])];
    const RunRef& ref = pass.runs[r];
    const DeviceConfig& dc = engines[static_cast<size_t>(ref.device)]->device().config();
    const double total = AttrNum(s, "sim_cycles");
    const double overlap = AttrNum(s, "overlap_saved_cycles");
    const double sum = per_run[r].TotalCycles() - overlap;
    if (!Near(sum, total) || !Near(total, ref.cycles)) {
      checks.Fail("request " + std::to_string(r) + ": layer buckets sum to " +
                  std::to_string(sum) + " cycles, run total " + std::to_string(total) +
                  ", scheduler reports " + std::to_string(ref.cycles));
    }
    if (ref.batch >= 0 && static_cast<size_t>(ref.batch) < batch_sum.size()) {
      batch_sum[static_cast<size_t>(ref.batch)] += total;
    }
    ledger.buckets += per_run[r];
    ledger.overlap_ms += dc.CyclesToMillis(overlap);
    ledger.request_sim_ms += dc.CyclesToMillis(total);
  }
  for (size_t b = 0; b < batch_sum.size(); ++b) {
    if (!Near(batch_sum[b], pass.batch_serial_cycles[b])) {
      checks.Fail("batch " + std::to_string(b) + ": runs sum to " + std::to_string(batch_sum[b]) +
                  " cycles, the scheduler reports " + std::to_string(pass.batch_serial_cycles[b]));
    }
  }

  // Host time of the benchmark's own spans around the public calls. Around a
  // RunSession::Run call (cold_frames) everything but kernels is engine
  // orchestration; around a scheduler call, whatever is not an engine run
  // (or a kernel launched on a run's behalf) is the serving loop itself.
  double run_host = 0.0, request_host = 0.0, pass_host = 0.0, orphan_host = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const trace::SpanRecord& s = spans[i];
    const double host = s.HostDurationUs() * 1e-3;
    if (s.category == "run") run_host += host;
    if (s.category == "kernel" && run_of[i] < 0) orphan_host += host;
    if (s.category == "bench") (s.name == "bench/request" ? request_host : pass_host) += host;
  }
  double run_kernel_host_total = 0.0;
  for (double h : run_kernel_host) run_kernel_host_total += h;
  if (request_host > 0.0) {
    ledger.orchestration_host_ms = request_host - run_kernel_host_total - orphan_host;
  } else {
    ledger.orchestration_host_ms = run_host - run_kernel_host_total;
    ledger.loop_host_ms = pass_host - run_host - orphan_host;
  }
  return ledger;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  // sim | serve | host | count
  int64_t samples = 0;
  double percentile = -1.0;  // < 0: not a percentile
};

std::vector<std::string> End2EndNames() {
  return {"sim_latency_ms.p50", "sim_latency_ms.tail", "host_req_per_s", "goodput_rps",
          "setup_s", "peak_rss_mb"};
}

double Safe(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// The highest percentile with at least ten samples beyond it.
double TailPercentile(int64_t n) {
  return n <= 10 ? 50.0 : std::max(50.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void AddEnd2End(const PassResult& r, double setup_s, int64_t setup_samples, double peak_rss_mb,
                std::vector<Metric>& out) {
  const int64_t n = static_cast<int64_t>(r.latency_ms.size());
  const double tail = TailPercentile(n);
  out.push_back({"sim_latency_ms.p50", Percentile(r.latency_ms, 50.0), "ms", "sim", n, 50.0});
  out.push_back({"sim_latency_ms.tail", Percentile(r.latency_ms, tail), "ms", "sim", n, tail});
  out.push_back({"host_req_per_s", r.unit_rates.empty() ? 0.0 : Median(r.unit_rates), "1/s", "host",
                 static_cast<int64_t>(r.unit_rates.size()), 50.0});
  out.push_back({"goodput_rps", Safe(static_cast<double>(r.within_slo), r.sim_duration_s), "1/s",
                 "sim", r.completed});
  out.push_back({"setup_s", setup_s, "s", "host", setup_samples, 50.0});
  out.push_back({"peak_rss_mb", peak_rss_mb, "MB", "host", 1});
  out.push_back({"fail_frac",
                 Safe(static_cast<double>(r.offered - r.completed), static_cast<double>(r.offered)),
                 "ratio", "count", r.offered});
}

void AddPerLayer(const PassResult& r, const Ledger& l, double untraced_host_s,
                 double setup_data_ms, double sim_drift, std::vector<Metric>& out) {
  const double req = static_cast<double>(std::max<int64_t>(1, r.completed));
  const int64_t n = r.completed;
  const BucketSums& b = l.buckets;
  auto per_req = [&](double v) { return v / req; };
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return Safe(static_cast<double>(hits), static_cast<double>(hits + misses));
  };
  auto ms = [&](const char* name, double v, const char* clock) {
    out.push_back({name, per_req(v), "ms", clock, n});
  };
  ms("gpusort.sim_ms", b.sim_ms[kSort], "sim");
  ms("gpusort.host_ms", b.host_ms[kSort], "host");
  ms("map.sim_ms", b.sim_ms[kMap], "sim");
  ms("map.host_ms", b.host_ms[kMap], "host");
  out.push_back({"map.launches", per_req(static_cast<double>(b.launches[kMap])), "count", "count", n});
  out.push_back({"map.l2_hit_ratio", ratio(b.l2_hits[kMap], b.l2_misses[kMap]), "ratio", "sim", n});
  ms("map.delta_sim_ms", b.sim_ms[kMapDelta], "sim");
  ms("map.delta_host_ms", b.host_ms[kMapDelta], "host");
  out.push_back({"map.incremental_frac", Safe(static_cast<double>(r.frames_incremental), req),
                 "ratio", "count", n});
  ms("gmas.metadata_sim_ms", b.sim_ms[kMetadata], "sim");
  ms("gmas.metadata_host_ms", b.host_ms[kMetadata], "host");
  ms("gmas.buffer_sim_ms", b.sim_ms[kBuffer], "sim");
  ms("gmas.buffer_host_ms", b.host_ms[kBuffer], "host");
  ms("gmas.gather_sim_ms", b.sim_ms[kGather], "sim");
  ms("gmas.gather_host_ms", b.host_ms[kGather], "host");
  ms("gmas.gemm_sim_ms", b.sim_ms[kGemm], "sim");
  ms("gmas.gemm_host_ms", b.host_ms[kGemm], "host");
  ms("gmas.gemm_overlap_ms", -l.overlap_ms, "sim");
  ms("gmas.scatter_sim_ms", b.sim_ms[kScatter], "sim");
  ms("gmas.scatter_host_ms", b.host_ms[kScatter], "host");
  out.push_back({"gmas.padding_frac", Safe(l.padded_rows, l.actual_rows), "ratio", "count", n});
  uint64_t gmas_dram = 0;
  double gmas_host = 0.0;
  for (int k = 0; k < kNumBuckets; ++k) {
    if (IsGmas(k)) {
      gmas_dram += b.dram_bytes[k];
      gmas_host += b.host_ms[k];
    }
  }
  out.push_back({"gmas.dram_mb", per_req(static_cast<double>(gmas_dram) * 1e-6), "MB", "sim", n});
  ms("engine.elementwise_sim_ms", b.sim_ms[kElementwise], "sim");
  ms("engine.elementwise_host_ms", b.host_ms[kElementwise], "host");
  ms("engine.coords_sim_ms", b.sim_ms[kCoords], "sim");
  ms("engine.dense_gemm_sim_ms", b.sim_ms[kDenseGemm], "sim");
  ms("engine.orchestration_host_ms", l.orchestration_host_ms, "host");
  uint64_t hits = 0, misses = 0;
  double rate_min = 1.0, rate_max = 0.0;
  for (size_t i = 0; i < r.plan_hits.size(); ++i) {
    hits += r.plan_hits[i];
    misses += r.plan_misses[i];
    if (r.plan_hits[i] + r.plan_misses[i] > 0) {
      const double rate = ratio(r.plan_hits[i], r.plan_misses[i]);
      rate_min = std::min(rate_min, rate);
      rate_max = std::max(rate_max, rate);
    }
  }
  out.push_back({"engine.plan_hit_ratio", ratio(hits, misses), "ratio", "count", n});
  out.push_back({"engine.pool_reuse_ratio", ratio(r.pool_reuses, r.pool_allocations), "ratio",
                 "count", n});
  int64_t launches = 0;
  uint64_t l2_hits = 0, l2_misses = 0;
  for (int k = 0; k < kNumBuckets; ++k) {
    launches += b.launches[k];
    l2_hits += b.l2_hits[k];
    l2_misses += b.l2_misses[k];
  }
  out.push_back({"engine.launches_per_req", per_req(static_cast<double>(launches)), "count",
                 "count", n});
  out.push_back({"gpusim.l2_hit_ratio", ratio(l2_hits, l2_misses), "ratio", "sim", n});
  out.push_back({"gpusim.l2_accesses", per_req(static_cast<double>(l2_hits + l2_misses)), "count",
                 "count", n});
  out.push_back({"gpusim.host_ns_per_access",
                 Safe(l.kernel_host_ms * 1e6, static_cast<double>(l2_hits + l2_misses)), "ns",
                 "host", n});
  const double qtail = TailPercentile(static_cast<int64_t>(r.queue_ms.size()));
  out.push_back({"serve.queue_ms.p50", Percentile(r.queue_ms, 50.0), "ms", "serve", n, 50.0});
  out.push_back({"serve.queue_ms.tail", Percentile(r.queue_ms, qtail), "ms", "serve", n, qtail});
  out.push_back({"serve.batch_size_mean", Safe(req, static_cast<double>(r.batches)), "count",
                 "count", n});
  out.push_back({"serve.utilization", Safe(r.busy_us, r.replica_us), "ratio", "serve", n});
  out.push_back({"serve.plan_hit_asymmetry", r.plan_hits.size() > 1 ? rate_max - rate_min : 0.0,
                 "ratio", "count", n});
  ms("serve.loop_host_ms", l.loop_host_ms, "host");
  out.push_back({"serve.drop_frac",
                 Safe(static_cast<double>(r.shed + r.dropped), static_cast<double>(r.offered)),
                 "ratio", "count", r.offered});
  out.push_back({"data.host_ms", setup_data_ms + r.data_host_ms, "ms", "host", 1});
  out.push_back({"trace.overhead_frac", Safe(r.host_s - untraced_host_s, untraced_host_s), "ratio",
                 "host", 1});
  out.push_back({"trace.sim_drift_frac", sim_drift, "ratio", "sim", n});
  // Contrast shares: map + gpusort over simulated request time, and GMaS
  // kernels over host time inside the timed calls.
  out.push_back({"map.sim_share", Safe(b.sim_ms[kMap] + b.sim_ms[kSort], l.request_sim_ms),
                 "ratio", "sim", n});
  out.push_back({"gmas.host_share", Safe(gmas_host, r.host_s * 1e3), "ratio", "host", n});
}

std::vector<std::string> PerLayerNames() {
  std::vector<Metric> m;
  AddPerLayer(PassResult{}, Ledger{}, 1.0, 0.0, 0.0, m);
  std::vector<std::string> names;
  for (const Metric& x : m) names.push_back(x.name);
  return names;
}

void PrintTable(const char* workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %14.6g %-6s clock=%-5s n=%lld", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), static_cast<long long>(m.samples));
    if (m.percentile >= 0) std::printf(" p=%.1f", m.percentile);
    std::printf(" workload=%s\n", workload);
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics, const std::vector<std::string>& names) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    for (const Metric& m : metrics) {
      if (m.name != name) continue;
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
      json += buf;
      first = false;
      break;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// The untraced pass of --trace 1 runs in a child process forked before any
// set-up, and the traced pass in the parent, so both start from the same heap.
// The child hands back the numbers the comparison and the end-to-end table
// need, flattened to doubles (every count is far below 2^53).
struct Digest {
  std::vector<double> v;
  size_t at = 0;
  void Put(double x) { v.push_back(x); }
  void Put(const std::vector<double>& xs) {
    Put(static_cast<double>(xs.size()));
    v.insert(v.end(), xs.begin(), xs.end());
  }
  template <typename T, size_t N>
  void Put(const std::array<T, N>& xs) {
    for (T x : xs) Put(static_cast<double>(x));
  }
  double Get() { return at < v.size() ? v[at++] : 0.0; }
  void Get(std::vector<double>& xs) {
    xs.resize(static_cast<size_t>(Get()));
    for (double& x : xs) x = Get();
  }
  template <typename T, size_t N>
  void Get(std::array<T, N>& xs) {
    for (T& x : xs) x = static_cast<T>(Get());
  }
};

void Flatten(const PassResult& r, double setup_s, double setup_data_ms, int failures,
             Digest& d) {
  for (double x : {PeakRssMb(), static_cast<double>(r.units), static_cast<double>(r.offered),
                   static_cast<double>(r.completed), static_cast<double>(r.shed),
                   static_cast<double>(r.dropped), static_cast<double>(r.within_slo),
                   r.sim_duration_s, r.host_s, setup_s, setup_data_ms,
                   static_cast<double>(failures)}) {
    d.Put(x);
  }
  d.Put(r.latency_ms);
  d.Put(r.run_ms);
  d.Put(r.unit_rates);
  d.Put(r.kernels.cycles);
  d.Put(r.kernels.launches);
  d.Put(r.kernels.l2_hits);
  d.Put(r.kernels.l2_misses);
}

PassResult Unflatten(Digest& d, double* peak_rss_mb, double* setup_s, double* setup_data_ms,
                     int* failures) {
  PassResult r;
  *peak_rss_mb = d.Get();
  r.units = static_cast<int64_t>(d.Get());
  r.offered = static_cast<int64_t>(d.Get());
  r.completed = static_cast<int64_t>(d.Get());
  r.shed = static_cast<int64_t>(d.Get());
  r.dropped = static_cast<int64_t>(d.Get());
  r.within_slo = static_cast<int64_t>(d.Get());
  r.sim_duration_s = d.Get();
  r.host_s = d.Get();
  *setup_s = d.Get();
  *setup_data_ms = d.Get();
  *failures = static_cast<int>(d.Get());
  d.Get(r.latency_ms);
  d.Get(r.run_ms);
  d.Get(r.unit_rates);
  d.Get(r.kernels.cycles);
  d.Get(r.kernels.launches);
  d.Get(r.kernels.l2_hits);
  d.Get(r.kernels.l2_misses);
  return r;
}

// Runs `body` in a forked child and returns what it wrote into its digest;
// false if the child failed or wrote nothing.
template <typename Body>
bool RunInChild(Body body, Digest& out) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    Digest d;
    body(d);
    const char* p = reinterpret_cast<const char*>(d.v.data());
    size_t left = d.v.size() * sizeof(double);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<size_t>(n);
    }
    close(fds[1]);
    std::fflush(stdout);
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[65536];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) bytes.append(buf, static_cast<size_t>(n));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.empty() ||
      bytes.size() % sizeof(double) != 0) {
    return false;
  }
  out.v.resize(bytes.size() / sizeof(double));
  std::memcpy(out.v.data(), bytes.data(), bytes.size());
  return true;
}

// Tracing must not change what is simulated. Launch counts per layer bucket
// and the request counts do not depend on host memory layout and must match
// exactly. Cycle counts and L2 statistics do: the L2 model keys on host
// addresses, and the tracer's own allocations move later buffers, so those
// are reported as a drift instead (see sim_drift).
bool SameSimulation(const PassResult& a, const PassResult& b, std::string* why) {
  if (a.units != b.units || a.offered != b.offered || a.completed != b.completed ||
      a.run_ms.size() != b.run_ms.size()) {
    *why = "request counts differ";
    return false;
  }
  if (a.kernels.launches != b.kernels.launches) {
    *why = "kernel launches per layer bucket differ";
    return false;
  }
  return true;
}

// Relative difference of the traced pass's simulated request time from the
// untraced pass's.
double SimDrift(const PassResult& untraced, const PassResult& traced) {
  double a = 0.0, b = 0.0;
  for (double x : untraced.run_ms) a += x;
  for (double x : traced.run_ms) b += x;
  return Safe(std::fabs(b - a), a);
}

// Checks every pass runs on itself: layer buckets and the serving identity.
void PassChecks(const PassResult& r, Checks& checks) {
  if (!r.problems.empty()) {
    checks.Fail("layer-sum check: " + r.problems);
  }
  if (r.offered != r.completed + r.shed + r.dropped) {
    checks.Fail("serving identity: offered != completed + shed + dropped");
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool small = false;
  std::string trace_dir;  // --trace 1 writes <dir>/<workload>.trace.json here
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_frames|serve_unet42|lidar_stream --seed N "
               "--seconds S --trace 0|1 [--small] [--trace-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--small") {
      args.small = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" || a == "--trace" ||
               a == "--trace-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (a == "--trace-dir") args.trace_dir = v;
      if (a == "--workload") args.workload = v;
      if (a == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") args.seconds = std::strtod(v, nullptr);
      if (a == "--trace") args.trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> w;
  if (args.workload == "cold_frames") {
    w = std::make_unique<ColdFrames>(args.small);
  } else if (args.workload == "serve_unet42") {
    w = std::make_unique<ServeUnet42>(args.small);
  } else if (args.workload == "lidar_stream") {
    w = std::make_unique<LidarStream>(args.small);
  } else {
    return Usage();
  }
  if (!(args.seconds > 0 && args.seconds <= 3600) || (args.trace != 0 && args.trace != 1)) {
    return Usage();
  }

  PinHostHeapForReplay();
  WallTimer total_time;
  Checks checks;
  std::vector<Metric> metrics;
  PassResult pass;
  if (args.trace == 0) {
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
      CpuTimer setup;
      w->Setup(args.seed);
      setups.push_back(setup.ElapsedSeconds());
    }
    pass = w->Run(w->UnitsFor(args.seconds));
    AddEnd2End(pass, Median(setups), kSetupRepeats, PeakRssMb(), metrics);
  } else {
    Digest digest;
    const bool child_ok = RunInChild(
        [&](Digest& d) {
          CpuTimer setup;
          const double data_ms = w->Setup(args.seed);
          const double setup_s = setup.ElapsedSeconds();
          PassResult r = w->Run(w->UnitsFor(args.seconds));
          Checks child;
          PassChecks(r, child);
          Flatten(r, setup_s, data_ms, static_cast<int>(child.failures.size()), d);
        },
        digest);
    double peak_rss_mb = 0.0, setup_s = 0.0, setup_data_ms = 0.0;
    int child_failures = 0;
    const PassResult untraced =
        Unflatten(digest, &peak_rss_mb, &setup_s, &setup_data_ms, &child_failures);
    if (!child_ok || child_failures > 0 || untraced.units == 0) {
      checks.Fail("untraced pass failed in its child process");
    }
    AddEnd2End(untraced, setup_s, 1, peak_rss_mb, metrics);
    w->Setup(args.seed);
    trace::Tracer tracer;
    trace::Tracer::Install(&tracer);
    pass = w->Run(w->UnitsFor(args.seconds));
    trace::Tracer::Install(nullptr);
    std::string why;
    if (!SameSimulation(untraced, pass, &why)) {
      checks.Fail("traced pass differs from the untraced pass: " + why);
    }
    Ledger ledger = BuildLedger(tracer, pass, w->engines(), checks);
    if (std::string(w->name()) == "cold_frames" &&
        (ledger.padded_rows != static_cast<double>(pass.padded_rows) ||
         ledger.actual_rows != static_cast<double>(pass.actual_rows))) {
      checks.Fail("span-derived padding rows differ from the engine's RunResult");
    }
    std::string trace_file = "(not written)";
    if (!args.trace_dir.empty()) {
      trace_file = args.trace_dir + "/" + w->name() + ".trace.json";
      if (!trace::WriteChromeTrace(tracer, trace_file)) {
        checks.Fail("cannot write " + trace_file);
      }
    }
    std::printf("traced pass: %zu spans, %lld engine runs, Chrome trace %s\n",
                tracer.spans().size(), static_cast<long long>(ledger.runs), trace_file.c_str());
    AddPerLayer(pass, ledger, untraced.host_s, setup_data_ms, SimDrift(untraced, pass),
                metrics);
  }
  PassChecks(pass, checks);
  WallTimer check_time;
  w->CheckOutputs(args.seed, checks);
  std::printf("host seconds: %.1f total, %.1f in output checks; unit rates:",
              total_time.ElapsedSeconds(), check_time.ElapsedSeconds());
  for (double u : pass.unit_rates) std::printf(" %.4g", u);
  std::printf("\n");

  PrintTable(w->name(), metrics);
  std::printf("checks: %lld output checks, %lld failed; %zu check failures in total\n",
              static_cast<long long>(checks.output_checks),
              static_cast<long long>(checks.output_failures), checks.failures.size());
  const int64_t failed = pass.offered - pass.completed + checks.output_failures;
  PrintResult(checks.ok(), pass.offered + checks.output_checks, failed, metrics,
              args.trace == 0 ? End2EndNames() : PerLayerNames());
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
