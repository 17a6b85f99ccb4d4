// fleet_serve: serve::CodingService::run with three simulated devices
// (gtx280, 8800gt, gtx280), n=16, k=256, degrade admission, offered load
// 0.9 and a plan that kills device 1 and later restores it. The simulated
// clock drives the service, so its outcomes repeat exactly; the measure is
// the host time of playing the plan: many tiny launches plus the serve
// layer's admission, ladder, decode verification and journal.
//
// The benchmark seed picks the served content; the arrival plan is fixed.
// Each run must end with no failed session, no bit-exactness failure, no
// decode mismatch, exact terminal-state accounting, and the same delivery
// digest as the first run. Shed and degraded sessions are deterministic
// policy outcomes, reported as counts by the traced run.
//
// The engine is pinned to serial, as for sim_gtx280.
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"
#include "serve/fleet.h"
#include "serve/service.h"
#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"

namespace perfbench {
namespace {

namespace coding = extnc::coding;
namespace serve = extnc::serve;
namespace simgpu = extnc::simgpu;

serve::ServiceConfig make_config(const Options& options) {
  serve::ServiceConfig config;
  config.fleet.params = {.n = 16, .k = 256};
  for (std::size_t i = 0; i < 3; ++i) {
    config.fleet.devices.push_back(i % 2 == 0 ? simgpu::gtx280()
                                              : simgpu::geforce_8800gt());
  }
  config.fleet.content_seed = derive_seed(options.seed, 1);
  config.offered_load = 0.9;
  config.duration_s = options.quick ? 0.04 : 0.15;
  config.admission.capacity = 16;
  config.admission.policy = serve::ShedPolicy::kDegrade;
  // The arrival and job seeds are part of the plan, so its outcomes (and
  // every serve.* count) repeat exactly across benchmark seeds; the seed
  // picks the served content.
  config.seed = 42;
  config.plan.events.push_back(serve::FleetEvent{
      .at = config.duration_s / 4, .device = 1, .kill = true});
  config.plan.events.push_back(serve::FleetEvent{
      .at = config.duration_s / 2, .device = 1, .kill = false});
  return config;
}

// Counts the report's failures into `result`.
void check_report(const serve::ServiceReport& report, Result& result) {
  result.attempted += report.arrivals;
  const std::uint64_t bad = report.failed + report.bitexact_failures +
                            report.decode_mismatches +
                            (report.accounting_exact() ? 0 : 1);
  if (bad > 0) {
    result.fail(bad, "service run: failed/bit-exact/decode/accounting");
  }
}

// Served batches for the decode-verification phase: one per job seed,
// round-robin over the devices, at full service density (n + 4 blocks).
std::vector<coding::CodedBatch> served_batches(
    serve::FleetScheduler& fleet, const serve::ServiceConfig& config,
    std::size_t count, std::uint64_t seed, const char* span_name) {
  std::vector<coding::CodedBatch> batches(count);
  for (std::size_t i = 0; i < count; ++i) {
    const ScopedSpan span(span_name);
    fleet.encode_segment(i % fleet.size(), derive_seed(seed, 1000 + i),
                         config.fleet.params.n + config.blocks_extra,
                         serve::ServiceMode::kFull, &batches[i]);
  }
  return batches;
}

// Set-up: construct the service, then serve one segment on each of its
// devices through its FleetScheduler, which pays the encoders' lazy
// first-launch work before the plan starts.
std::unique_ptr<serve::CodingService> set_up(
    const serve::ServiceConfig& config) {
  auto service = std::make_unique<serve::CodingService>(config);
  serve::FleetScheduler& fleet = service->fleet();
  for (std::size_t d = 0; d < fleet.size(); ++d) {
    coding::CodedBatch warm;
    fleet.encode_segment(d, d, config.fleet.params.n + config.blocks_extra,
                         serve::ServiceMode::kFull, &warm);
  }
  return service;
}

void trace_fleet(const Options& options, const serve::ServiceConfig& config,
                 Result& result) {
  serve::FleetScheduler fleet(config.fleet, [] { return 0.0; });
  const std::size_t probes = options.quick ? 20 : 400;
  tracer().set_enabled(true);
  const std::vector<coding::CodedBatch> batches = served_batches(
      fleet, config, probes, options.seed, "serve.encode_segment");
  for (const coding::CodedBatch& batch : batches) {
    serve::DecodeCheck check;
    {
      const ScopedSpan span("serve.verify_decode");
      check = fleet.verify_decode(batch);
    }
    result.attempted += 1;
    if (check != serve::DecodeCheck::kBitExact) {
      result.fail(1, "verify_decode of a served batch");
    }
  }
  tracer().set_enabled(false);

  std::vector<double> untraced;
  for (int r = 0; r < 3; ++r) {
    const std::unique_ptr<serve::CodingService> service = set_up(config);
    const double t0 = now_s();
    check_report(service->run(), result);
    untraced.push_back(now_s() - t0);
  }
  const std::unique_ptr<serve::CodingService> service = set_up(config);
  const SimCounters before = sim_counters();
  tracer().set_enabled(true);
  serve::ServiceReport report;
  {
    const ScopedSpan span("serve.run");
    report = service->run();
  }
  tracer().set_enabled(false);
  const SimCounters after = sim_counters();
  check_report(report, result);

  const double run_s = span_totals("serve.run").total_s;
  result.add("serve.encode_segment_us",
             span_totals("serve.encode_segment").mean_s() * 1e6, "us");
  result.add("serve.verify_decode_us",
             span_totals("serve.verify_decode").mean_s() * 1e6, "us");
  result.add("serve.run_s", run_s, "s");
  result.add("serve.arrivals", report.arrivals, "count");
  result.add("serve.completed", report.completed, "count");
  result.add("serve.degraded", report.degraded, "count");
  result.add("serve.shed", report.shed, "count");
  result.add("serve.hedges", report.hedges, "count");
  result.add("serve.journal_records", report.journal_records, "count");
  result.add("serve.model_segment_p99_ms",
             report.segment_latency_s.p99() * 1e3, "ms");
  result.add("simgpu.launches", after.launches - before.launches, "count");
  result.add("simgpu.timing_memo_hits", after.memo_hits - before.memo_hits,
             "count");
  result.add("trace.overhead_share", run_s / median(untraced) - 1, "ratio");
}

}  // namespace

Result run_fleet_serve(const Options& options) {
  simgpu::set_default_engine(simgpu::ExecEngine::kSerial);
  Result result;
  const serve::ServiceConfig config = make_config(options);
  result.stamp_number("pool_threads", config.fleet.threads);
  if (options.trace) {
    trace_fleet(options, config, result);
    return result;
  }

  // Rounds until the budget is spent: set up a fresh service, then play
  // the plan. Every served segment is decode-verified inside run(), so the
  // service's decode throughput is its serve throughput.
  Samples setup;
  Samples run_s;
  std::uint64_t served = 0;
  std::uint32_t digest = 0;
  const Deadline deadline(options.seconds);
  for (int round = 0;; ++round) {
    const double t0 = now_s();
    const std::unique_ptr<serve::CodingService> service = set_up(config);
    const double t1 = now_s();
    const serve::ServiceReport report = service->run();
    const double t2 = now_s();
    check_report(report, result);
    if (round == 0) {
      served = report.segments_served;
      digest = report.delivered_digest;
    } else if (report.segments_served != served ||
               report.delivered_digest != digest) {
      result.fail(1, "service run " + std::to_string(round) +
                         " differs from the first run");
    }
    setup.add(t1 - t0);
    run_s.add(t2 - t1);
    if (options.quick ? round >= 1 : round >= 8 && deadline.expired()) break;
  }

  // Untimed: verify_decode must accept every batch a fleet serves.
  serve::FleetScheduler fleet(config.fleet, [] { return 0.0; });
  std::vector<coding::CodedBatch> batches =
      served_batches(fleet, config, options.quick ? 8 : 64, options.seed,
                     "serve.encode_segment");
  if (options.inject_fault) batches[0].payload(0)[0] ^= 0x01;
  for (const coding::CodedBatch& batch : batches) {
    result.attempted += 1;
    if (fleet.verify_decode(batch) != serve::DecodeCheck::kBitExact) {
      result.fail(1, "verify_decode of a served batch");
    }
  }

  const double served_mb_s =
      static_cast<double>(served * config.fleet.params.n *
                          config.fleet.params.k) /
      kMB / run_s.fastest_window_median();
  result.add("setup_s", setup.fastest_window_median(), "s");
  result.add("encode_mb_s", served_mb_s, "MB/s");
  result.add("decode_mb_s", served_mb_s, "MB/s");
  result.add_latency(run_s, "service run");
  std::fprintf(stderr,
               "fleet_serve: %zu service runs, %llu segments each "
               "(%.1f segments per host second)\n",
               run_s.size(), static_cast<unsigned long long>(served),
               static_cast<double>(served) / run_s.fastest_window_median());
  return result;
}

}  // namespace perfbench
