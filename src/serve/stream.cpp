#include "src/serve/stream.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/serve/reqtrace.h"
#include "src/serve/telemetry.h"
#include "src/trace/metrics.h"
#include "src/util/check.h"
#include "src/util/summary.h"

namespace minuet {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double CyclesToUs(const DeviceConfig& config, double cycles) {
  return config.CyclesToMillis(cycles) * 1000.0;
}

double SafeDiv(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// One frame waiting on a replica. FIFO per replica in (arrival, stream)
// order; a stream's frames are mutually ordered because arrivals are
// admitted frame-major.
struct QueuedFrame {
  int64_t frame = 0;
  int64_t stream = 0;
  double arrival_us = 0.0;
};

// Per-replica loop state for one run.
struct ReplicaState {
  std::vector<QueuedFrame> queue;
  bool busy = false;
  double flight_end_us = 0.0;
  int64_t flight_batch = -1;
  int64_t flight_stream = -1;
  RequestRecord flight_record;
  int64_t frames_since_drain = 0;
};

}  // namespace

StreamScheduler::StreamScheduler(std::vector<Engine*> engines,
                                 const StreamServeConfig& config)
    : config_(config), engines_(std::move(engines)) {
  MINUET_CHECK(!engines_.empty()) << "stream serving needs at least one replica";
  MINUET_CHECK_GE(config.num_streams, 1);
  MINUET_CHECK_GT(config.frame_period_us, 0.0);
  MINUET_CHECK_GE(config.frame_deadline_us, 0.0);
  MINUET_CHECK_GE(config.drop_slo, 0.0);
  for (Engine* engine : engines_) {
    MINUET_CHECK(engine != nullptr);
    MINUET_CHECK_EQ(engine->network().in_channels, engines_[0]->network().in_channels)
        << "stream replicas must share an input-channel count";
  }
  SequenceSessionConfig session_config;
  session_config.plan_capacity = config.plan_capacity;
  session_config.incremental = config.incremental;
  session_config.rebuild_threshold = config.rebuild_threshold;
  for (int64_t s = 0; s < config.num_streams; ++s) {
    Stream stream;
    stream.device = static_cast<int>(s % static_cast<int64_t>(engines_.size()));
    stream.session = std::make_unique<SequenceSession>(
        *engines_[static_cast<size_t>(stream.device)], session_config);
    streams_.push_back(std::move(stream));
  }
}

StreamServeResult StreamScheduler::Run(const Sequence& sequence) {
  const int64_t num_frames = static_cast<int64_t>(sequence.frames.size());
  const int64_t num_streams = config_.num_streams;
  const size_t num_devices = engines_.size();
  MINUET_CHECK_GT(num_frames, 0) << "cannot serve an empty sequence";
  MINUET_CHECK_EQ(engines_[0]->network().in_channels, sequence.config.channels)
      << "sequence channel count must match the replica networks";

  // The latency SLO of a video stream *is* the frame deadline; the synthetic
  // scheduler config carries it into the shared summary/telemetry machinery.
  SchedulerConfig scfg;
  scfg.policy = AdmissionPolicy::kFifo;
  scfg.queue_capacity = num_frames * num_streams;
  scfg.max_batch_size = 1;
  scfg.max_queue_delay_us = 0.0;
  scfg.slo_us = config_.frame_deadline_us;
  scfg.seed = sequence.config.seed;
  scfg.device_trace_drain_batches = config_.device_trace_drain_frames;

  ReqTraceRecorder reqtrace;
  reqtrace.Reset(static_cast<int>(num_devices));
  if (telemetry_ != nullptr) {
    telemetry_->BeginRun(static_cast<int>(num_devices), scfg);
  }

  std::vector<ReplicaState> replicas(num_devices);
  std::vector<StreamSummary> stream_summaries(static_cast<size_t>(num_streams));
  std::vector<std::vector<double>> stream_latency(static_cast<size_t>(num_streams));
  for (int64_t s = 0; s < num_streams; ++s) {
    StreamSummary& summary = stream_summaries[static_cast<size_t>(s)];
    summary.stream = s;
    summary.device = streams_[static_cast<size_t>(s)].device;
  }

  std::vector<RequestRecord> records;
  std::vector<BatchRecord> batches;
  records.reserve(static_cast<size_t>(num_frames * num_streams));

  const auto make_request = [&](int64_t frame, int64_t stream) {
    const SequenceFrame& sf = sequence.frames[static_cast<size_t>(frame)];
    Request request;
    request.id = frame * num_streams + stream;
    request.arrival_us = static_cast<double>(frame) * config_.frame_period_us;
    request.priority = 0;
    request.batch_class = static_cast<int>(stream);
    request.dataset = sequence.config.dataset;
    request.points = sf.cloud.num_points();
    request.cloud_seed = sequence.config.seed;
    request.client = static_cast<int>(stream);
    return request;
  };

  double now_us = 0.0;
  int64_t next_frame = 0;  // next sensor tick to admit (all streams at once)
  while (true) {
    // Next events. Ties resolve in a fixed order: completions (ascending
    // device), then the frame's arrivals (ascending stream id == ascending
    // request id), then dispatches (ascending device).
    double completion_t = kInf;
    int completion_dev = -1;
    for (size_t k = 0; k < replicas.size(); ++k) {
      if (replicas[k].busy && replicas[k].flight_end_us < completion_t) {
        completion_t = replicas[k].flight_end_us;
        completion_dev = static_cast<int>(k);
      }
    }
    const double arrival_t =
        next_frame < num_frames ? static_cast<double>(next_frame) * config_.frame_period_us
                                : kInf;
    double dispatch_t = kInf;
    int dispatch_dev = -1;
    for (size_t k = 0; k < replicas.size(); ++k) {
      if (!replicas[k].busy && !replicas[k].queue.empty()) {
        dispatch_t = now_us;
        dispatch_dev = static_cast<int>(k);
        break;
      }
    }

    const double t = std::min({completion_t, arrival_t, dispatch_t});
    if (t == kInf) {
      break;
    }
    now_us = t;
    if (telemetry_ != nullptr) {
      telemetry_->AdvanceTo(now_us);
    }

    if (completion_t <= t) {
      // 1. Frame completion.
      ReplicaState& replica = replicas[static_cast<size_t>(completion_dev)];
      replica.busy = false;
      reqtrace.EndBatch(completion_dev, now_us);
      batches[static_cast<size_t>(replica.flight_batch)].completion_us = now_us;
      RequestRecord record = std::move(replica.flight_record);
      record.completion_us = now_us;
      StreamSummary& summary = stream_summaries[static_cast<size_t>(replica.flight_stream)];
      ++summary.completed;
      stream_latency[static_cast<size_t>(replica.flight_stream)].push_back(
          record.LatencyUs());
      if (telemetry_ != nullptr) {
        telemetry_->OnCompletion(now_us, completion_dev, record.request.id,
                                 record.QueueUs(),
                                 static_cast<double>(record.trace.batch_delay_ns) * 1e-3,
                                 record.LatencyUs(),
                                 record.LatencyUs() <= config_.frame_deadline_us);
      }
      records.push_back(std::move(record));
      replica.flight_batch = -1;
      replica.flight_stream = -1;
      continue;
    }

    if (arrival_t <= t) {
      // 2. Sensor tick: frame `next_frame` of every stream arrives.
      const int64_t frame = next_frame++;
      for (int64_t s = 0; s < num_streams; ++s) {
        const int dev = streams_[static_cast<size_t>(s)].device;
        ReplicaState& replica = replicas[static_cast<size_t>(dev)];
        replica.queue.push_back({frame, s, now_us});
        ++stream_summaries[static_cast<size_t>(s)].frames;
        reqtrace.AdmitRequest(dev, frame * num_streams + s, now_us);
        if (telemetry_ != nullptr) {
          telemetry_->OnArrival(now_us, dev, frame * num_streams + s,
                                static_cast<int64_t>(replica.queue.size()));
        }
      }
      continue;
    }

    // 3. Dispatch the head frame of an idle replica's queue.
    ReplicaState& replica = replicas[static_cast<size_t>(dispatch_dev)];
    const QueuedFrame head = replica.queue.front();
    replica.queue.erase(replica.queue.begin());
    Stream& stream = streams_[static_cast<size_t>(head.stream)];
    const SequenceFrame& sf = sequence.frames[static_cast<size_t>(head.frame)];
    Request request = make_request(head.frame, head.stream);

    if (now_us > head.arrival_us + config_.frame_deadline_us) {
      // Too stale to start: drop the frame and break the stream's
      // incremental chain — the next frame of this stream full-rebuilds.
      stream.session->ResetChain();
      RequestRecord record;
      record.request = request;
      record.shed = true;
      record.device = dispatch_dev;
      ++stream_summaries[static_cast<size_t>(head.stream)].dropped;
      if (telemetry_ != nullptr) {
        telemetry_->OnShed(now_us, dispatch_dev, request.id);
        telemetry_->series().Count("stream/frames_dropped", now_us, 1.0);
      }
      records.push_back(std::move(record));
      continue;
    }

    const SessionStats before = stream.session->session().stats();
    // Frame 0 always restarts the chain: on a second pass over the sequence
    // the retained keys describe the *last* frame, not frame -1 of this one.
    FrameRunResult fr =
        head.frame == 0
            ? stream.session->RunFrame(sf.cloud)
            : stream.session->RunFrame(sf.cloud, sf.motion, sf.deleted, sf.inserted);
    const SessionStats after = stream.session->session().stats();

    RequestRecord record;
    record.request = request;
    record.warm = after.warm_runs > before.warm_runs;
    record.device = dispatch_dev;
    record.batch_id = static_cast<int64_t>(batches.size());
    record.dispatch_us = now_us;
    record.service_cycles = fr.run.total.TotalCycles();

    const DeviceConfig& device_config =
        engines_[static_cast<size_t>(dispatch_dev)]->device().config();
    const double service_us = CyclesToUs(device_config, record.service_cycles);
    replica.busy = true;
    replica.flight_end_us = now_us + service_us;
    replica.flight_batch = record.batch_id;
    replica.flight_stream = head.stream;

    record.trace = reqtrace.FinalizeRequest(dispatch_dev, request.id, head.arrival_us,
                                            now_us, replica.flight_end_us, service_us,
                                            ExecPhasesOf(fr.run.total));
    reqtrace.BeginBatch(dispatch_dev, now_us);

    BatchRecord batch;
    batch.id = record.batch_id;
    batch.batch_class = request.batch_class;
    batch.device = dispatch_dev;
    batch.size = 1;
    batch.dispatch_us = now_us;
    batch.completion_us = replica.flight_end_us;  // provisional
    batch.service_cycles = record.service_cycles;
    batch.serial_cycles = record.service_cycles;
    batches.push_back(batch);

    StreamSummary& summary = stream_summaries[static_cast<size_t>(head.stream)];
    if (fr.incremental) {
      ++summary.frames_incremental;
    } else {
      ++summary.frames_rebuilt;
    }
    if (telemetry_ != nullptr) {
      telemetry_->OnDispatch(
          now_us, dispatch_dev, batch.id, 1, record.warm ? 1 : 0,
          static_cast<int64_t>(after.plan.hits - before.plan.hits),
          static_cast<int64_t>(after.plan.misses - before.plan.misses),
          replica.flight_end_us, static_cast<int64_t>(replica.queue.size()));
      telemetry_->series().Count(
          fr.incremental ? "stream/frames_incremental" : "stream/frames_rebuilt", now_us,
          1.0);
    }
    replica.flight_record = std::move(record);

    if (scfg.device_trace_drain_batches > 0 &&
        ++replica.frames_since_drain >= scfg.device_trace_drain_batches) {
      engines_[static_cast<size_t>(dispatch_dev)]->device().ClearTrace();
      replica.frames_since_drain = 0;
    }
  }

  for (const ReplicaState& replica : replicas) {
    MINUET_CHECK(replica.queue.empty());
    MINUET_CHECK(!replica.busy);
  }

  std::stable_sort(records.begin(), records.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.request.id < b.request.id;
                   });

  StreamServeResult result;
  result.config = config_;
  result.sequence = sequence.config;
  result.requests = std::move(records);
  result.batches = std::move(batches);

  StreamServeSummary& summary = result.summary;
  summary.serve = Summarize(result.requests, result.batches, scfg);
  summary.serve.utilization = SafeDiv(summary.serve.server_busy_us,
                                      static_cast<double>(num_devices) * summary.serve.duration_us);
  for (size_t s = 0; s < stream_summaries.size(); ++s) {
    StreamSummary& stream = stream_summaries[s];
    stream.latency_p50_us = Percentile(stream_latency[s], 50.0);
    stream.latency_p99_us = Percentile(stream_latency[s], 99.0);
    summary.frames_offered += stream.frames;
    summary.frames_completed += stream.completed;
    summary.frames_dropped += stream.dropped;
    summary.frames_incremental += stream.frames_incremental;
    summary.frames_rebuilt += stream.frames_rebuilt;
  }
  summary.drop_rate = SafeDiv(static_cast<double>(summary.frames_dropped),
                              static_cast<double>(summary.frames_offered));
  summary.drop_slo = config_.drop_slo;
  summary.drop_slo_ok = summary.drop_rate <= config_.drop_slo;
  result.streams = std::move(stream_summaries);

  if (telemetry_ != nullptr) {
    telemetry_->Finish();
    result.alerts = telemetry_->alerts();
  }
  return result;
}

void PublishStreamMetrics(const StreamServeResult& result, trace::MetricsRegistry& registry) {
  // The aggregate reuses the single-device serving surface, so dashboards
  // built on "serve/..." read video-rate runs unchanged.
  ServeResult aggregate;
  aggregate.config.slo_us = result.config.frame_deadline_us;
  aggregate.requests = result.requests;
  aggregate.batches = result.batches;
  aggregate.summary = result.summary.serve;
  PublishServeMetrics(aggregate, registry);

  const StreamServeSummary& s = result.summary;
  registry.GetCounter("serve/stream/streams").Set(result.config.num_streams);
  registry.GetCounter("serve/stream/frames_offered").Set(s.frames_offered);
  registry.GetCounter("serve/stream/frames_completed").Set(s.frames_completed);
  registry.GetCounter("serve/stream/frames_dropped").Set(s.frames_dropped);
  registry.GetCounter("serve/stream/frames_incremental").Set(s.frames_incremental);
  registry.GetCounter("serve/stream/frames_rebuilt").Set(s.frames_rebuilt);
  registry.GetGauge("serve/stream/frame_period_us").Set(result.config.frame_period_us);
  registry.GetGauge("serve/stream/frame_deadline_us").Set(result.config.frame_deadline_us);
  registry.GetGauge("serve/stream/drop_rate").Set(s.drop_rate);
  registry.GetGauge("serve/stream/drop_slo").Set(s.drop_slo);
  registry.GetGauge("serve/stream/drop_slo_ok").Set(s.drop_slo_ok ? 1.0 : 0.0);
}

}  // namespace serve
}  // namespace minuet
