#include "src/serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <utility>

#include "src/serve/reqtrace.h"
#include "src/serve/telemetry.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/summary.h"

namespace minuet {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Exponential(Pcg32& rng, double mean) {
  return -std::log(1.0 - rng.NextDouble()) * mean;
}

// Min-heap order over pending arrivals: earliest first, ids break ties.
struct ArrivalAfter {
  bool operator()(const Request& a, const Request& b) const {
    return a.arrival_us != b.arrival_us ? a.arrival_us > b.arrival_us : a.id > b.id;
  }
};

double CyclesToUs(const DeviceConfig& config, double cycles) {
  return config.CyclesToMillis(cycles) * 1000.0;
}

// Every rate/ratio in the summaries goes through this so degenerate runs
// (all shed, empty trace, zero-duration) report 0 instead of NaN/Inf —
// JsonWriter would otherwise decay them to null in reports.
double SafeDiv(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::tuple<int, int64_t, uint64_t> ShapeKey(const Request& request) {
  return std::make_tuple(static_cast<int>(request.dataset), request.points, request.cloud_seed);
}

}  // namespace

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin:
      return "round-robin";
    case RoutingPolicy::kLeastLoaded:
      return "least-loaded";
    case RoutingPolicy::kAffinity:
      return "affinity";
    case RoutingPolicy::kSjfSpillover:
      return "sjf-spillover";
  }
  return "unknown";
}

bool ParseRoutingPolicy(const std::string& name, RoutingPolicy* out) {
  if (name == "round-robin") {
    *out = RoutingPolicy::kRoundRobin;
  } else if (name == "least-loaded") {
    *out = RoutingPolicy::kLeastLoaded;
  } else if (name == "affinity") {
    *out = RoutingPolicy::kAffinity;
  } else if (name == "sjf-spillover" || name == "sjf") {
    *out = RoutingPolicy::kSjfSpillover;
  } else {
    return false;
  }
  return true;
}

Replica::Replica(int id, Engine& engine, const SchedulerConfig& config)
    : id_(id), engine_(&engine), config_(config), session_(engine) {}

int64_t Replica::Outstanding() const {
  return static_cast<int64_t>(queue_.size() + flight_.size());
}

int64_t Replica::OutstandingPoints() const {
  int64_t points = 0;
  for (const Pending& pending : queue_) {
    points += pending.request.points;
  }
  for (const RequestRecord& record : flight_) {
    points += record.request.points;
  }
  return points;
}

bool Replica::QueueFull() const {
  return static_cast<int64_t>(queue_.size()) >= config_.queue_capacity;
}

double Replica::SpeedScore() const {
  const DeviceConfig& device = engine_->device().config();
  return static_cast<double>(device.num_sms) * device.clock_ghz;
}

FleetScheduler::FleetScheduler(std::vector<Engine*> engines, const FleetConfig& config)
    : config_(config) {
  MINUET_CHECK(!engines.empty()) << "a fleet needs at least one replica";
  MINUET_CHECK_GE(config.scheduler.queue_capacity, 0);
  MINUET_CHECK_GE(config.scheduler.max_batch_size, 1);
  MINUET_CHECK_GE(config.scheduler.max_queue_delay_us, 0.0);
  for (size_t i = 0; i < engines.size(); ++i) {
    MINUET_CHECK(engines[i] != nullptr);
    MINUET_CHECK_EQ(engines[i]->network().in_channels, engines[0]->network().in_channels)
        << "fleet replicas must share an input-channel count: request clouds are "
        << "generated once and served on whichever replica the router picks";
    replicas_.push_back(
        std::make_unique<Replica>(static_cast<int>(i), *engines[i], config.scheduler));
  }
}

const PointCloud& FleetScheduler::CloudFor(const Request& request) {
  const auto key = ShapeKey(request);
  auto it = clouds_.find(key);
  if (it == clouds_.end()) {
    GeneratorConfig gen;
    gen.target_points = request.points;
    gen.channels = replicas_[0]->engine().network().in_channels;
    gen.seed = request.cloud_seed;
    it = clouds_.emplace(key, GenerateCloud(request.dataset, gen)).first;
  }
  return it->second;
}

int FleetScheduler::Route(const Request& request) {
  const int n = static_cast<int>(replicas_.size());
  const auto least_loaded = [&]() {
    int best = -1;
    int64_t best_load = 0;
    for (int k = 0; k < n; ++k) {
      if (replicas_[static_cast<size_t>(k)]->QueueFull()) {
        continue;
      }
      const int64_t load = replicas_[static_cast<size_t>(k)]->Outstanding();
      if (best < 0 || load < best_load) {
        best = k;
        best_load = load;
      }
    }
    return best;
  };

  switch (config_.routing) {
    case RoutingPolicy::kRoundRobin: {
      const int start = static_cast<int>(round_robin_next_++ % n);
      for (int step = 0; step < n; ++step) {
        const int k = (start + step) % n;
        if (!replicas_[static_cast<size_t>(k)]->QueueFull()) {
          return k;
        }
      }
      return -1;
    }
    case RoutingPolicy::kLeastLoaded:
      return least_loaded();
    case RoutingPolicy::kAffinity: {
      const auto key = ShapeKey(request);
      auto it = affinity_.find(key);
      if (it != affinity_.end() && !replicas_[static_cast<size_t>(it->second)]->QueueFull()) {
        return it->second;
      }
      const int k = least_loaded();
      // First touch claims the shape; a full owner spills without losing it.
      if (k >= 0 && it == affinity_.end()) {
        affinity_.emplace(key, k);
      }
      return k;
    }
    case RoutingPolicy::kSjfSpillover: {
      int best = -1;
      double best_finish = kInf;
      for (int k = 0; k < n; ++k) {
        Replica& replica = *replicas_[static_cast<size_t>(k)];
        if (replica.QueueFull()) {
          continue;
        }
        const double finish =
            static_cast<double>(replica.OutstandingPoints() + request.points) /
            replica.SpeedScore();
        if (best < 0 || finish < best_finish) {
          best = k;
          best_finish = finish;
        }
      }
      return best;
    }
  }
  return -1;
}

FleetResult FleetScheduler::Run(std::vector<Request> trace) {
  std::stable_sort(trace.begin(), trace.end(), [](const Request& a, const Request& b) {
    return a.arrival_us != b.arrival_us ? a.arrival_us < b.arrival_us : a.id < b.id;
  });
  return RunLoop(std::move(trace), nullptr);
}

FleetResult FleetScheduler::Run(const TraceConfig& trace) {
  if (trace.process != ArrivalProcess::kClosedLoop) {
    return RunLoop(GenerateArrivalTrace(trace), nullptr);
  }
  return RunLoop({}, &trace);
}

FleetResult FleetScheduler::RunLoop(std::vector<Request> arrivals, const TraceConfig* closed) {
  trace::Tracer* tracer = trace::Tracer::Get();
  const SchedulerConfig& cfg = config_.scheduler;
  const bool single = replicas_.size() == 1;
  if (telemetry_ != nullptr) {
    telemetry_->BeginRun(static_cast<int>(replicas_.size()), cfg);
  }

  // Per-request causal tracing is always on: every completed request's phase
  // segments are CHECKed to sum bit-exactly to its e2e latency, every run.
  ReqTraceRecorder reqtrace;
  reqtrace.Reset(static_cast<int>(replicas_.size()));

  // Per-run replica state and session baselines: sessions persist across
  // Run() calls (warm redeploys), so per-run cache stats are deltas.
  std::vector<SessionStats> session_base;
  session_base.reserve(replicas_.size());
  for (auto& replica : replicas_) {
    replica->batches_since_drain_ = 0;
    session_base.push_back(replica->session().stats());
  }

  std::priority_queue<Request, std::vector<Request>, ArrivalAfter> pending(
      ArrivalAfter{}, std::move(arrivals));

  // Closed-loop client pool: seeded issue per client, re-issue on completion
  // or shed after an exponential think time, until num_requests are out. The
  // pool is fleet-wide — clients do not pin to replicas; the router decides.
  Pcg32 timing_rng(closed != nullptr ? closed->seed : 0, /*stream=*/0x5e73aa);
  Pcg32 body_rng(closed != nullptr ? closed->seed : 0, /*stream=*/0x5e73bb);
  RequestSampler sampler(closed != nullptr ? *closed : TraceConfig{});
  int64_t issued = 0;
  auto issue = [&](int client, double not_before_us) {
    if (closed == nullptr || issued >= closed->num_requests) {
      return;
    }
    if (telemetry_ != nullptr && telemetry_->stop_requested()) {
      return;  // draining: clients stop re-issuing
    }
    const double arrival = not_before_us + Exponential(timing_rng, closed->think_time_us);
    Request request = sampler.Sample(issued++, arrival, body_rng);
    request.client = client;
    pending.push(request);
  };
  if (closed != nullptr) {
    MINUET_CHECK_GT(closed->num_clients, 0);
    MINUET_CHECK_GT(closed->think_time_us, 0.0);
    for (int client = 0; client < closed->num_clients; ++client) {
      issue(client, 0.0);
    }
  }

  std::vector<RequestRecord> records;
  std::vector<BatchRecord> batches;

  double now_us = 0.0;
  bool drained = false;
  for (;;) {
    // Cooperative stop (SIGINT via telemetry): shed everything not yet
    // running — pending arrivals at their own timestamps (all >= now; they
    // have not been processed), queued requests at `now` — and let in-flight
    // batches complete, so the truncated run still satisfies every end-of-
    // loop invariant and its report is well-formed.
    if (!drained && telemetry_ != nullptr && telemetry_->stop_requested()) {
      drained = true;
      while (!pending.empty()) {
        Request request = pending.top();
        pending.pop();
        RequestRecord record;
        record.request = request;
        record.shed = true;
        record.device = 0;
        telemetry_->OnShed(request.arrival_us, 0, request.id);
        records.push_back(record);
      }
      for (auto& rp : replicas_) {
        for (const Replica::Pending& p : rp->queue_) {
          RequestRecord record;
          record.request = p.request;
          record.shed = true;
          record.device = rp->id_;
          telemetry_->OnShed(now_us, rp->id_, p.request.id);
          records.push_back(record);
        }
        rp->queue_.clear();
      }
    }

    // 1. Earliest batch completion; equal timestamps resolve to the lowest
    // device id (one completion per loop iteration keeps the order total).
    double completion_t = kInf;
    int completion_dev = -1;
    for (auto& replica : replicas_) {
      if (replica->busy_ && replica->flight_end_us_ < completion_t) {
        completion_t = replica->flight_end_us_;
        completion_dev = replica->id_;
      }
    }

    const double arrival_t = pending.empty() ? kInf : pending.top().arrival_us;
    // A replica may dispatch a partial batch early only when no arrival can
    // ever top it up. In a fleet that is not "the pending heap is empty":
    // closed-loop clients re-issue when some *other* replica completes, so a
    // busy replica anywhere keeps the future open.
    const bool more_arrivals_possible =
        !pending.empty() ||
        (closed != nullptr && issued < closed->num_requests && completion_dev >= 0);

    // 3-candidates. Per idle replica with queued work: dispatch now when the
    // batch is full or nothing can top it up, else at the earliest member's
    // delay-timer expiry. The earliest replica wins; ties go to the lowest
    // device id (strict < below).
    double dispatch_t = kInf;
    int dispatch_dev = -1;
    std::vector<size_t> dispatch_batch;
    for (auto& rp : replicas_) {
      Replica& replica = *rp;
      if (replica.busy_ || replica.queue_.empty()) {
        continue;
      }
      std::vector<QueueEntry> entries;
      entries.reserve(replica.queue_.size());
      for (const Replica::Pending& p : replica.queue_) {
        entries.push_back({&p.request, p.admit_order});
      }
      std::vector<size_t> batch = PickBatch(entries, cfg.policy, cfg.max_batch_size);
      double t_k;
      if (static_cast<int64_t>(batch.size()) >= cfg.max_batch_size || !more_arrivals_possible) {
        t_k = now_us;
      } else {
        double oldest_us = kInf;
        for (size_t idx : batch) {
          oldest_us = std::min(oldest_us, replica.queue_[idx].request.arrival_us);
        }
        const double timer_t = oldest_us + cfg.max_queue_delay_us;
        if (timer_t <= now_us) {
          // The delay timer fired at or before `now`. Arrivals are sequenced
          // before dispatches at equal timestamps, so a request stamped `now`
          // is already in the queue — but it arrived *after* the timer went
          // off and must not ride the departing batch. Freeze the batch to
          // requests that arrived strictly before `now`, provided that frozen
          // batch is itself timer-expired (it always is when the timer owner
          // arrived before `now`; the fallback covers max_queue_delay_us == 0,
          // where everything legitimately arrived this instant).
          std::vector<QueueEntry> frozen;
          std::vector<size_t> frozen_to_queue;
          for (size_t qi = 0; qi < replica.queue_.size(); ++qi) {
            if (replica.queue_[qi].request.arrival_us < now_us) {
              frozen.push_back({&replica.queue_[qi].request, replica.queue_[qi].admit_order});
              frozen_to_queue.push_back(qi);
            }
          }
          std::vector<size_t> frozen_batch = PickBatch(frozen, cfg.policy, cfg.max_batch_size);
          if (!frozen_batch.empty()) {
            double frozen_oldest_us = kInf;
            for (size_t fi : frozen_batch) {
              frozen_oldest_us = std::min(frozen_oldest_us, frozen[fi].request->arrival_us);
            }
            if (frozen_oldest_us + cfg.max_queue_delay_us <= now_us) {
              batch.clear();
              for (size_t fi : frozen_batch) {
                batch.push_back(frozen_to_queue[fi]);
              }
            }
          }
          t_k = now_us;
        } else {
          t_k = timer_t;
        }
      }
      if (t_k < dispatch_t) {
        dispatch_t = t_k;
        dispatch_dev = replica.id_;
        dispatch_batch = std::move(batch);
      }
    }

    const double t = std::min({completion_t, arrival_t, dispatch_t});
    if (t == kInf) {
      break;
    }
    now_us = t;
    if (telemetry_ != nullptr) {
      // Close every telemetry window the clock just passed *before* the
      // event at t is processed: the event belongs to the window containing
      // t, and alerts from the closed windows sequence ahead of it.
      telemetry_->AdvanceTo(now_us);
    }

    if (completion_t <= t) {
      // 1. Batch completion: the whole batch finishes together.
      Replica& replica = *replicas_[static_cast<size_t>(completion_dev)];
      replica.busy_ = false;
      reqtrace.EndBatch(completion_dev, now_us);
      batches[static_cast<size_t>(replica.flight_batch_)].completion_us = now_us;
      if (tracer != nullptr) {
        tracer->SetServeNow(now_us);
      }
      for (RequestRecord& record : replica.flight_) {
        record.completion_us = now_us;
        if (tracer != nullptr) {
          // Flow arrow lands on the batch span's end: request causality in
          // Perfetto reads arrival -> dispatch -> completion.
          tracer->AddServeFlow("req#" + std::to_string(record.request.id),
                               record.request.id, 'f', completion_dev);
        }
        if (telemetry_ != nullptr) {
          telemetry_->OnCompletion(now_us, completion_dev, record.request.id,
                                   record.QueueUs(),
                                   static_cast<double>(record.trace.batch_delay_ns) * 1e-3,
                                   record.LatencyUs(),
                                   record.LatencyUs() <= cfg.slo_us);
        }
        issue(record.request.client, now_us);
        records.push_back(record);
      }
      replica.flight_.clear();
      replica.flight_batch_ = -1;
      continue;
    }

    if (arrival_t <= t) {
      // 2. Request arrival: route to a replica or shed when every admissible
      // queue is full.
      Request request = pending.top();
      pending.pop();
      const int dev = Route(request);
      if (dev < 0) {
        RequestRecord record;
        record.request = request;
        record.shed = true;
        // No replica took it; attribute the refusal to the least-loaded one
        // (ties to device 0) so per-device shed accounting stays exhaustive
        // and the fleet-of-one reduces to the classic single-device records.
        int blame = 0;
        int64_t blame_load = replicas_[0]->Outstanding();
        for (size_t k = 1; k < replicas_.size(); ++k) {
          const int64_t load = replicas_[k]->Outstanding();
          if (load < blame_load) {
            blame = static_cast<int>(k);
            blame_load = load;
          }
        }
        record.device = blame;
        if (tracer != nullptr) {
          // Anchor slice for the refused request; no flow arrows — a shed
          // request has no dispatch or completion to link to.
          tracer->SetServeNow(now_us);
          const int64_t req_span = tracer->OpenSpan(
              "serve/req#" + std::to_string(request.id), "serve.req");
          tracer->SetServeTrack(req_span, blame);
          tracer->SetAttr(req_span, "priority", static_cast<int64_t>(request.priority));
          tracer->SetAttr(req_span, "points", request.points);
          tracer->SetAttr(req_span, "shed", static_cast<int64_t>(1));
          tracer->CloseSpan(req_span);
        }
        if (telemetry_ != nullptr) {
          telemetry_->OnShed(now_us, blame, request.id);
        }
        issue(request.client, now_us);
        records.push_back(record);
      } else {
        Replica& replica = *replicas_[static_cast<size_t>(dev)];
        replica.queue_.push_back({request, replica.admit_counter_++});
        reqtrace.AdmitRequest(dev, request.id, now_us);
        if (tracer != nullptr) {
          // Zero-duration arrival slice on the routed replica's track plus
          // the flow start; the dispatch step ("t") and completion finish
          // ("f") bind to the batch span the request later rides.
          tracer->SetServeNow(now_us);
          const int64_t req_span = tracer->OpenSpan(
              "serve/req#" + std::to_string(request.id), "serve.req");
          tracer->SetServeTrack(req_span, dev);
          tracer->SetAttr(req_span, "priority", static_cast<int64_t>(request.priority));
          tracer->SetAttr(req_span, "points", request.points);
          tracer->CloseSpan(req_span);
          tracer->AddServeFlow("req#" + std::to_string(request.id), request.id, 's', dev);
        }
        if (telemetry_ != nullptr) {
          telemetry_->OnArrival(now_us, dev, request.id,
                                static_cast<int64_t>(replica.queue_.size()));
        }
      }
      continue;
    }

    // 3. Dispatch: run the picked batch through the replica's session,
    // overlap the members on its stream pool, occupy it until completion.
    MINUET_CHECK_GE(dispatch_dev, 0);
    MINUET_CHECK(!dispatch_batch.empty());
    Replica& replica = *replicas_[static_cast<size_t>(dispatch_dev)];
    const DeviceConfig& device_config = replica.engine().device().config();
    const int64_t batch_id = static_cast<int64_t>(batches.size());
    int64_t span_id = -1;
    if (tracer != nullptr) {
      tracer->SetServeNow(now_us);
      const std::string span_name =
          single ? "serve/batch#" + std::to_string(batch_id)
                 : "serve/dev" + std::to_string(dispatch_dev) + "/batch#" +
                       std::to_string(batch_id);
      span_id = tracer->OpenSpan(span_name, "serve");
      tracer->SetServeTrack(span_id, dispatch_dev);
    }

    std::vector<double> member_cycles;
    std::vector<ExecPhaseCycles> member_exec;
    member_cycles.reserve(dispatch_batch.size());
    member_exec.reserve(dispatch_batch.size());
    replica.flight_.clear();
    const SessionStats batch_stats_before = replica.session_.stats();
    for (size_t idx : dispatch_batch) {
      const Replica::Pending& p = replica.queue_[idx];
      const SessionStats before = replica.session_.stats();
      RunResult run = replica.session_.Run(CloudFor(p.request));
      const SessionStats after = replica.session_.stats();

      RequestRecord record;
      record.request = p.request;
      record.warm = after.warm_runs > before.warm_runs;
      record.device = dispatch_dev;
      record.batch_id = batch_id;
      record.dispatch_us = now_us;
      record.service_cycles = run.total.TotalCycles();
      member_cycles.push_back(record.service_cycles);
      // Kernel-span linkage for the blame profiler: the engine's per-step
      // cycle breakdown, bucketed into the PhaseTrace execution phases.
      member_exec.push_back(ExecPhasesOf(run.total));
      replica.flight_.push_back(record);
    }

    BatchRecord batch;
    batch.id = batch_id;
    batch.batch_class = replica.flight_.front().request.batch_class;
    batch.device = dispatch_dev;
    batch.size = static_cast<int64_t>(replica.flight_.size());
    batch.dispatch_us = now_us;
    batch.service_cycles =
        BatchServiceCycles(member_cycles, replica.engine().config().stream_pool_size);
    batch.serial_cycles = std::accumulate(member_cycles.begin(), member_cycles.end(), 0.0);

    const double service_us = CyclesToUs(device_config, batch.service_cycles);
    replica.busy_ = true;
    replica.flight_end_us_ = now_us + service_us;
    replica.flight_batch_ = batch_id;
    batch.completion_us = replica.flight_end_us_;  // provisional; rewritten on completion
    batches.push_back(batch);

    // Finalise each member's phase trace now: the deterministic clock already
    // knows the completion time, and the replica's busy integral is fully
    // closed (BeginBatch below opens the new flight interval).
    for (size_t m = 0; m < replica.flight_.size(); ++m) {
      RequestRecord& record = replica.flight_[m];
      record.trace = reqtrace.FinalizeRequest(
          dispatch_dev, record.request.id, record.request.arrival_us, now_us,
          replica.flight_end_us_, CyclesToUs(device_config, member_cycles[m]),
          member_exec[m]);
    }
    reqtrace.BeginBatch(dispatch_dev, now_us);

    if (span_id >= 0) {
      tracer->SetAttr(span_id, "batch_size", batch.size);
      tracer->SetAttr(span_id, "batch_class", static_cast<int64_t>(batch.batch_class));
      tracer->SetAttr(span_id, "device", static_cast<int64_t>(dispatch_dev));
      tracer->SetAttr(span_id, "service_cycles", batch.service_cycles);
      tracer->SetAttr(span_id, "serial_cycles", batch.serial_cycles);
      for (const RequestRecord& record : replica.flight_) {
        // Flow step at dispatch, bound inside the batch span.
        tracer->AddServeFlow("req#" + std::to_string(record.request.id),
                             record.request.id, 't', dispatch_dev);
      }
      tracer->SetServeNow(replica.flight_end_us_);
      tracer->CloseSpan(span_id);
    }

    // Remove dispatched entries (descending index order keeps indices valid).
    std::vector<size_t> doomed = dispatch_batch;
    std::sort(doomed.begin(), doomed.end());
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
      replica.queue_.erase(replica.queue_.begin() + static_cast<int64_t>(*it));
    }

    if (telemetry_ != nullptr) {
      int64_t warm = 0;
      for (const RequestRecord& record : replica.flight_) {
        warm += record.warm ? 1 : 0;
      }
      const SessionStats batch_stats_after = replica.session_.stats();
      telemetry_->OnDispatch(
          now_us, dispatch_dev, batch_id, batch.size, warm,
          static_cast<int64_t>(batch_stats_after.plan.hits - batch_stats_before.plan.hits),
          static_cast<int64_t>(batch_stats_after.plan.misses -
                               batch_stats_before.plan.misses),
          replica.flight_end_us_, static_cast<int64_t>(replica.queue_.size()));
    }

    // Long-lived serving loops must not accumulate the device's launch trace
    // without bound: drain it on a fixed batch cadence. Aggregates
    // (kernel_aggregates, totals) survive a drain; only the per-launch
    // vector is released.
    if (cfg.device_trace_drain_batches > 0 &&
        ++replica.batches_since_drain_ >= cfg.device_trace_drain_batches) {
      replica.engine().device().ClearTrace();
      replica.batches_since_drain_ = 0;
    }
  }

  for (auto& replica : replicas_) {
    MINUET_CHECK(replica->queue_.empty());
    MINUET_CHECK(!replica->busy_);
  }

  std::stable_sort(records.begin(), records.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.request.id < b.request.id;
                   });

  // Per-device accounting: each replica summarised over its own slice of the
  // records, plus cache-stat deltas for this run.
  std::vector<DeviceSummary> devices;
  devices.reserve(replicas_.size());
  for (size_t k = 0; k < replicas_.size(); ++k) {
    Replica& replica = *replicas_[k];
    DeviceSummary dev;
    dev.device = static_cast<int>(k);
    dev.name = replica.engine().device().config().name;
    std::vector<RequestRecord> dev_requests;
    std::vector<BatchRecord> dev_batches;
    for (const RequestRecord& record : records) {
      if (record.device == static_cast<int>(k)) {
        dev_requests.push_back(record);
      }
    }
    for (const BatchRecord& batch : batches) {
      if (batch.device == static_cast<int>(k)) {
        dev_batches.push_back(batch);
      }
    }
    dev.summary = Summarize(dev_requests, dev_batches, cfg);
    const SessionStats stats = replica.session().stats();
    dev.plan_hits = stats.plan.hits - session_base[k].plan.hits;
    dev.plan_misses = stats.plan.misses - session_base[k].plan.misses;
    dev.plan_hit_rate = SafeDiv(static_cast<double>(dev.plan_hits),
                                static_cast<double>(dev.plan_hits + dev.plan_misses));
    dev.pool_reuses = stats.pool.reuses - session_base[k].pool.reuses;
    dev.pool_allocations = stats.pool.allocations - session_base[k].pool.allocations;
    devices.push_back(std::move(dev));
  }

  FleetResult result;
  result.config = config_;
  result.requests = std::move(records);
  result.batches = std::move(batches);
  result.summary = SummarizeFleet(result.requests, result.batches, config_, devices);
  if (telemetry_ != nullptr) {
    telemetry_->Finish();
    result.alerts = telemetry_->alerts();
  }
  return result;
}

FleetSummary SummarizeFleet(const std::vector<RequestRecord>& requests,
                            const std::vector<BatchRecord>& batches,
                            const FleetConfig& config,
                            const std::vector<DeviceSummary>& devices) {
  FleetSummary fleet;
  fleet.fleet = Summarize(requests, batches, config.scheduler);
  // Fleet utilization is busy time over N server-durations: a two-replica
  // fleet half-busy on each replica reports 0.5, same as one replica would.
  const double n = devices.empty() ? 1.0 : static_cast<double>(devices.size());
  fleet.fleet.utilization = SafeDiv(fleet.fleet.server_busy_us, n * fleet.fleet.duration_us);

  fleet.devices = devices;
  for (DeviceSummary& dev : fleet.devices) {
    // Per-device utilization measures against the fleet-wide duration so the
    // numbers compare across replicas of one run.
    dev.summary.utilization = SafeDiv(dev.summary.server_busy_us, fleet.fleet.duration_us);
  }

  // Per-priority tiers over the whole fleet.
  std::map<int, std::vector<double>> tier_latency;
  std::map<int, TierSummary> tiers;
  for (const RequestRecord& record : requests) {
    TierSummary& tier = tiers[record.request.priority];
    tier.priority = record.request.priority;
    ++tier.offered;
    if (record.shed) {
      ++tier.shed;
    } else {
      ++tier.completed;
      tier_latency[record.request.priority].push_back(record.LatencyUs());
    }
  }
  for (auto& [priority, tier] : tiers) {
    std::vector<double>& latency = tier_latency[priority];
    tier.latency_p50_us = Percentile(latency, 50.0);
    tier.latency_p99_us = Percentile(latency, 99.0);
    fleet.tiers.push_back(tier);
  }

  // Plan-cache hit asymmetry across replicas that saw any lookups (see
  // FleetSummary: least-loaded drives it up, affinity collapses it).
  bool any = false;
  for (const DeviceSummary& dev : fleet.devices) {
    if (dev.plan_hits + dev.plan_misses == 0) {
      continue;
    }
    if (!any) {
      fleet.plan_hit_rate_min = dev.plan_hit_rate;
      fleet.plan_hit_rate_max = dev.plan_hit_rate;
      any = true;
    } else {
      fleet.plan_hit_rate_min = std::min(fleet.plan_hit_rate_min, dev.plan_hit_rate);
      fleet.plan_hit_rate_max = std::max(fleet.plan_hit_rate_max, dev.plan_hit_rate);
    }
  }
  fleet.plan_hit_asymmetry = fleet.plan_hit_rate_max - fleet.plan_hit_rate_min;
  return fleet;
}

void PublishFleetMetrics(const FleetResult& result, trace::MetricsRegistry& registry) {
  // The aggregate reuses the single-device surface verbatim, so dashboards
  // built on "serve/..." keep working against fleet runs.
  ServeResult aggregate;
  aggregate.config = result.config.scheduler;
  aggregate.requests = result.requests;
  aggregate.batches = result.batches;
  aggregate.summary = result.summary.fleet;
  PublishServeMetrics(aggregate, registry);

  registry.GetCounter("serve/fleet/devices").Set(static_cast<int64_t>(result.summary.devices.size()));
  registry.GetLabel("serve/fleet/routing").Set(RoutingPolicyName(result.config.routing));
  registry.GetGauge("serve/fleet/plan_hit_rate_min").Set(result.summary.plan_hit_rate_min);
  registry.GetGauge("serve/fleet/plan_hit_rate_max").Set(result.summary.plan_hit_rate_max);
  registry.GetGauge("serve/fleet/plan_hit_asymmetry").Set(result.summary.plan_hit_asymmetry);

  for (const DeviceSummary& dev : result.summary.devices) {
    const std::string prefix = "serve/dev" + std::to_string(dev.device) + "/";
    registry.GetLabel(prefix + "name").Set(dev.name);
    registry.GetCounter(prefix + "offered").Set(dev.summary.offered);
    registry.GetCounter(prefix + "completed").Set(dev.summary.completed);
    registry.GetCounter(prefix + "shed").Set(dev.summary.shed);
    registry.GetCounter(prefix + "batches").Set(dev.summary.num_batches);
    registry.GetCounter(prefix + "warm_requests").Set(dev.summary.warm_requests);
    registry.GetCounter(prefix + "plan_hits").Set(static_cast<int64_t>(dev.plan_hits));
    registry.GetCounter(prefix + "plan_misses").Set(static_cast<int64_t>(dev.plan_misses));
    registry.GetGauge(prefix + "plan_hit_rate").Set(dev.plan_hit_rate);
    registry.GetGauge(prefix + "utilization").Set(dev.summary.utilization);
    registry.GetGauge(prefix + "latency_p99_us").Set(dev.summary.latency_p99_us);
  }
}

}  // namespace serve
}  // namespace minuet
