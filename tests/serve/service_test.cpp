// CodingService end-to-end: plan parsing, quiet runs, overload shedding
// and degradation, device-kill failover, hedging, and the acceptance soak
// (kill 1 of 3 devices and double offered load mid-run; every admitted
// session must end in exactly one terminal state with bit-exact output).
#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/device_spec.h"

namespace extnc::serve {
namespace {

ServiceConfig base_config(std::size_t devices) {
  ServiceConfig config;
  config.fleet.params = {.n = 8, .k = 64};
  for (std::size_t i = 0; i < devices; ++i) {
    config.fleet.devices.push_back(simgpu::gtx280());
  }
  config.fleet.threads = 1;
  config.segments_per_session = 4;
  config.duration_s = 0.05;
  config.seed = 7;
  return config;
}

TEST(FleetPlan, ParsesKillRestoreAndLoadTokens) {
  const auto plan = FleetPlan::parse("kill@20:1,load@30:2.0,restore@45:1");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_DOUBLE_EQ(plan->events[0].at, 20.0);
  EXPECT_EQ(plan->events[0].device, 1u);
  EXPECT_TRUE(plan->events[0].kill);
  EXPECT_DOUBLE_EQ(plan->events[1].at, 45.0);
  EXPECT_FALSE(plan->events[1].kill);
  ASSERT_EQ(plan->load.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->load[0].at, 30.0);
  EXPECT_DOUBLE_EQ(plan->load[0].multiplier, 2.0);
}

TEST(FleetPlan, AcceptsEmptySpecAndOrderedEvents) {
  const auto plan = FleetPlan::parse("kill@5:0,restore@45:0");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_TRUE(plan->events[0].kill);
  EXPECT_DOUBLE_EQ(plan->events[0].at, 5.0);

  const auto empty = FleetPlan::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->any());
}

TEST(FleetPlan, RejectsNonMonotoneTimestamps) {
  // A plan is a timeline: out-of-order tokens are almost always a typo'd
  // timestamp, and silently re-sorting them would run a scenario the user
  // never wrote. Equal timestamps across different kinds are fine.
  std::string error;
  EXPECT_FALSE(FleetPlan::parse("restore@45:0,kill@5:0", &error).has_value());
  EXPECT_NE(error.find("non-monotone"), std::string::npos) << error;
  EXPECT_FALSE(FleetPlan::parse("load@10:2,load@5:1").has_value());
  EXPECT_FALSE(FleetPlan::parse("crash@10,recover@5").has_value());
  EXPECT_TRUE(FleetPlan::parse("kill@10:0,load@10:2.0").has_value());
}

TEST(FleetPlan, ParsesCrashRecoverAndTenantBurstTokens) {
  const auto plan =
      FleetPlan::parse("crash@10,recover@12,tenantburst@20:batch:4.0");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->crashes[0], 10.0);
  ASSERT_EQ(plan->recovers.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->recovers[0], 12.0);
  ASSERT_EQ(plan->bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->bursts[0].at, 20.0);
  EXPECT_EQ(plan->bursts[0].tenant, "batch");
  EXPECT_DOUBLE_EQ(plan->bursts[0].multiplier, 4.0);
  EXPECT_TRUE(plan->any());
}

TEST(FleetPlan, RejectsMalformedTokensWithoutPartialState) {
  EXPECT_FALSE(FleetPlan::parse("kill@20").has_value());
  EXPECT_FALSE(FleetPlan::parse("explode@20:1").has_value());
  EXPECT_FALSE(FleetPlan::parse("kill@-5:1").has_value());
  EXPECT_FALSE(FleetPlan::parse("kill@20:1.5").has_value());
  EXPECT_FALSE(FleetPlan::parse("load@10:0").has_value());
  EXPECT_FALSE(FleetPlan::parse("kill@20:1,").has_value());
  EXPECT_FALSE(FleetPlan::parse("kill@20:1,,load@25:2").has_value());
  EXPECT_FALSE(FleetPlan::parse("crash@10:0").has_value());  // takes no value
  EXPECT_FALSE(FleetPlan::parse("tenantburst@10:batch").has_value());
  EXPECT_FALSE(FleetPlan::parse("tenantburst@10::2.0").has_value());
  EXPECT_FALSE(FleetPlan::parse("tenantburst@10:batch:0").has_value());
  std::string error;
  EXPECT_FALSE(FleetPlan::parse("kill@20:bogus", &error).has_value());
  EXPECT_NE(error.find("kill@20:bogus"), std::string::npos) << error;
}

TEST(FleetPlan, ValidateCatchesSemanticNonsense) {
  // Out-of-range device.
  auto plan = FleetPlan::parse("kill@5:7");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->validate(3).has_value());
  EXPECT_FALSE(plan->validate(8).has_value());

  // Duplicate (device, time) events.
  plan = FleetPlan::parse("kill@5:0,kill@5:0");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->validate(1).has_value());

  // Kill of a dead device / restore of an alive one.
  plan = FleetPlan::parse("kill@5:0,kill@9:0");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->validate(1).has_value());
  plan = FleetPlan::parse("restore@5:0");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->validate(1).has_value());
  plan = FleetPlan::parse("kill@5:0,restore@9:0,kill@12:0");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->validate(1).has_value());

  // Crash/recover must alternate; a trailing unrecovered crash is fine.
  plan = FleetPlan::parse("recover@5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->validate(1).has_value());
  plan = FleetPlan::parse("crash@5,crash@9");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->validate(1).has_value());
  plan = FleetPlan::parse("crash@5,recover@8,crash@20");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->validate(1).has_value());
}

TEST(CodingService, QuietRunCompletesEverySessionBitExactly) {
  ServiceConfig config = base_config(2);
  config.offered_load = 0.3;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_GT(report.arrivals, 10u);
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.completed, report.arrivals);
  EXPECT_EQ(report.degraded, 0u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);
  EXPECT_EQ(report.rank_short_segments, 0u);
  // Every segment landed in the healthy-phase histogram.
  EXPECT_EQ(report.segment_latency_s.count(), report.segments_served);
  EXPECT_EQ(report.segment_latency_healthy_s.count(), report.segments_served);
  EXPECT_EQ(report.segment_latency_faulted_s.count(), 0u);
  EXPECT_GT(report.session_latency_s.quantile(0.99), 0.0);
}

TEST(CodingService, OverloadUnderRejectPolicyShedsAndDegrades) {
  ServiceConfig config = base_config(2);
  config.offered_load = 4.0;  // far past fleet capacity
  config.admission.capacity = 8;
  config.admission.policy = ShedPolicy::kReject;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  EXPECT_GT(report.shed_rejected, 0u);
  EXPECT_GT(report.shed, 0u);
  // Pressure saturates at 1.0 under kReject: the ladder must have climbed
  // past every threshold and thinned dispatches must have happened.
  EXPECT_GT(report.ladder_transitions, 0u);
  EXPECT_GT(report.mode_dispatches[static_cast<int>(ServiceMode::kThinned)],
            0u);
  EXPECT_GT(report.degraded, 0u);
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);
}

TEST(CodingService, ShedOldestEvictsWaitersUnderOverload) {
  ServiceConfig config = base_config(2);
  config.offered_load = 4.0;
  config.admission.capacity = 8;
  config.admission.policy = ShedPolicy::kShedOldest;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  EXPECT_GT(report.shed_evicted, 0u);
  EXPECT_EQ(report.shed_rejected, 0u);  // arrivals always admitted
}

TEST(CodingService, DegradePolicyTradesFidelityForAdmission) {
  ServiceConfig config = base_config(2);
  config.offered_load = 4.0;
  config.admission.capacity = 8;
  config.admission.policy = ShedPolicy::kDegrade;
  config.admission.degrade_headroom = 2.0;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  EXPECT_GT(report.degraded, 0u);
  // Headroom admits sessions a reject queue would have dropped, so with
  // identical load the degrade policy must shed strictly fewer arrivals
  // at the door than its hard cap implies and still serve thinned.
  EXPECT_GT(report.mode_dispatches[static_cast<int>(ServiceMode::kThinned)],
            0u);
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);
}

TEST(CodingService, HangsTriggerHedgedRedispatch) {
  ServiceConfig config = base_config(2);
  config.offered_load = 0.5;
  // Frequent hangs: each costs the watchdog budget (20x nominal), far past
  // the hedge threshold (2x), so stragglers must hedge onto the peer.
  ASSERT_TRUE(simgpu::FaultPlan::parse("phang=0.2").has_value());
  config.fleet.faults = *simgpu::FaultPlan::parse("phang=0.2");
  config.hedge_factor = 2.0;
  config.deadline_factor = 1e6;  // isolate hedging from deadline sheds
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  EXPECT_GT(report.hedges, 0u);
  EXPECT_GT(report.hedge_wins, 0u);
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);
  EXPECT_EQ(report.failed, 0u);
}

// The ISSUE acceptance soak: 3 devices, the scripted plan kills one and
// doubles offered load mid-run. Every admitted session must end in exactly
// one terminal state, completed sessions decode bit-exactly, and the
// faulted phase is visible in the split latency histograms.
TEST(CodingService, KillOneOfThreeAndDoubleLoadSoak) {
  ServiceConfig config = base_config(3);
  config.offered_load = 0.9;
  config.duration_s = 0.1;
  config.admission.capacity = 12;
  config.admission.policy = ShedPolicy::kDegrade;
  const double t_kill = 0.04;
  const auto plan = FleetPlan::parse("kill@0.04:1,load@0.04:2.0");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  // A light probabilistic fault background on top of the scripted kill.
  ASSERT_TRUE(simgpu::FaultPlan::parse("pflip=0.01").has_value());
  config.fleet.faults = *simgpu::FaultPlan::parse("pflip=0.01");
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  // Exact terminal accounting: nothing lost, nothing double-counted.
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.completed + report.degraded + report.shed + report.failed,
            report.arrivals);
  EXPECT_GT(report.arrivals, 50u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);  // two devices always survive

  // Bit-exactness under faults and failover.
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);

  // The kill was observed: the victim's in-flight work re-dispatched onto
  // survivors, and the faulted phase produced latency samples.
  ASSERT_EQ(report.devices.size(), 3u);
  EXPECT_FALSE(report.devices[1].alive);
  EXPECT_GT(report.stale_completions, 0u);
  EXPECT_GT(report.redispatches, 0u);
  EXPECT_GT(report.segment_latency_faulted_s.count(), 0u);
  EXPECT_GT(report.segment_latency_healthy_s.count(), 0u);
  EXPECT_EQ(report.segment_latency_s.count(),
            report.segment_latency_healthy_s.count() +
                report.segment_latency_faulted_s.count());

  // Doubled load on two survivors is overload: degradation engaged.
  EXPECT_GT(report.degraded + report.shed, 0u);
  EXPECT_GT(report.ladder_transitions, 0u);

  // The dead device served nothing after the kill.
  for (const DeviceHealth& device : report.devices) {
    EXPECT_EQ(device.segments, device.gpu_segments + device.cpu_segments);
  }
  EXPECT_GT(report.devices[0].segments + report.devices[2].segments,
            report.devices[1].segments);

  // p99s exist for both phases (the BENCH_fleet contract).
  EXPECT_GT(report.segment_latency_healthy_s.quantile(0.99), 0.0);
  EXPECT_GT(report.segment_latency_faulted_s.quantile(0.99), 0.0);
  (void)t_kill;
}

TEST(CodingService, WholeFleetDeathFailsStrandedSessionsExplicitly) {
  ServiceConfig config = base_config(1);
  config.offered_load = 0.5;
  config.duration_s = 0.05;
  const auto plan = FleetPlan::parse("kill@0.02:0");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  // The only device died mid-run with no restore: everything in flight or
  // queued afterwards must end failed (or shed at a deadline) — never
  // silently lost.
  EXPECT_GT(report.failed, 0u);
  EXPECT_GT(report.completed, 0u);  // pre-kill sessions finished
}

TEST(CodingService, RestoreBringsTheDeviceBackIntoRotation) {
  ServiceConfig config = base_config(2);
  config.offered_load = 0.6;
  config.duration_s = 0.1;
  const auto plan = FleetPlan::parse("kill@0.02:0,restore@0.05:0");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(report.devices.size(), 2u);
  EXPECT_TRUE(report.devices[0].alive);  // restored
  EXPECT_TRUE(report.devices[1].alive);
}

// --- ramped restore --------------------------------------------------------

TEST(CodingService, RestoredDeviceClimbsTheRampMonotonically) {
  ServiceConfig config = base_config(2);
  config.offered_load = 0.7;
  config.duration_s = 0.15;
  config.fleet.restore_ramp.advance_after = 2;
  const auto plan = FleetPlan::parse("kill@0.02:0,restore@0.04:0");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.ramp_collapses, 0u);  // no faults: every segment clean
  // The restored device walked 0 -> 1 -> 2 -> 3 -> complete, never
  // backwards — the BENCH_fleet "monotone climb" contract.
  std::vector<int> stages;
  for (const auto& event : report.ramp_events) {
    if (event.device == 0) stages.push_back(event.stage);
  }
  ASSERT_GE(stages.size(), 2u);
  EXPECT_EQ(stages.front(), 0);
  for (std::size_t i = 1; i < stages.size(); ++i) {
    EXPECT_GT(stages[i], stages[i - 1]) << "ramp must climb monotonically";
  }
  EXPECT_EQ(stages.back(), kRampStages);  // reached full share
  ASSERT_EQ(report.devices.size(), 2u);
  EXPECT_EQ(report.devices[0].ramp_stage, kRampStages);
}

// --- crash recovery --------------------------------------------------------

ServiceConfig recovery_config() {
  ServiceConfig config;
  config.fleet.params = {.n = 8, .k = 64};
  config.fleet.devices = {simgpu::gtx280(), simgpu::gtx280()};
  config.fleet.threads = 1;
  config.segments_per_session = 3;
  config.offered_load = 0.4;       // light: both runs complete everything
  config.deadline_factor = 1e6;    // deadlines never interfere
  config.duration_s = 0.05;
  config.seed = 11;
  return config;
}

TEST(CodingService, CrashRecoverDeliversByteIdenticalPayloads) {
  // Baseline: the same scenario without the crash.
  ServiceConfig baseline_config = recovery_config();
  CodingService baseline(baseline_config);
  const ServiceReport clean = baseline.run();
  EXPECT_TRUE(clean.accounting_exact());
  EXPECT_EQ(clean.completed, clean.arrivals);

  // Crashed run: the process dies mid-run and recovers from its journal.
  ServiceConfig config = recovery_config();
  const auto plan = FleetPlan::parse("crash@0.02,recover@0.025");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  const ServiceReport report = run_with_recovery(config);

  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.recoveries, 1u);
  EXPECT_GT(report.journal_records, 0u);
  EXPECT_EQ(report.journal_dropped_bytes, 0u);
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);

  // ZERO lost sessions: the deterministic arrival timeline regenerates
  // every arrival the lost process would have seen.
  EXPECT_EQ(report.arrivals, clean.arrivals);
  EXPECT_EQ(report.completed, clean.completed);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.failed, 0u);

  // Byte-identical deliveries: the payload-CRC digest over every
  // completed session matches the uncrashed run exactly.
  EXPECT_EQ(report.delivered_digest, clean.delivered_digest);
  EXPECT_NE(report.delivered_digest, 0u);
}

TEST(CodingService, CrashedRunReportsPartialAndJournalRecovers) {
  // The process-level flow, by hand: run() stops at the crash with a
  // partial report, recover() rebuilds from the journal BYTES alone.
  ServiceConfig config = recovery_config();
  const auto plan = FleetPlan::parse("crash@0.02");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService first(config);
  const ServiceReport partial = first.run();
  EXPECT_TRUE(partial.crashed);
  EXPECT_DOUBLE_EQ(partial.crash_at_s, 0.02);

  const std::vector<std::uint8_t> journal = first.journal_bytes();
  auto second = CodingService::recover(config, journal);
  ASSERT_NE(second, nullptr);
  const ServiceReport report = second->run();
  EXPECT_FALSE(report.crashed);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.completed, report.arrivals);

  // Terminal states journaled before the crash carried over verbatim.
  EXPECT_GE(report.completed, partial.completed);
}

TEST(CodingService, DefaultConfigFingerprintIsPinned) {
  // Journals carry this value and recovery refuses any other, so a change
  // to what the fingerprint folds, or to a folded default, orphans every
  // existing journal.
  ServiceConfig config;
  config.fleet.devices.push_back(simgpu::gtx280());
  const CodingService service(config);
  EXPECT_EQ(service.config_fingerprint(), 0x513bd3d948eb330cULL);
}

TEST(CodingService, RecoveryRefusesForeignOrCorruptJournals) {
  ServiceConfig config = recovery_config();
  const auto plan = FleetPlan::parse("crash@0.02");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService first(config);
  (void)first.run();
  const std::vector<std::uint8_t> journal = first.journal_bytes();

  // A different seed is a different config: the fingerprint must refuse.
  ServiceConfig other = recovery_config();
  other.plan = *plan;
  other.seed = 999;
  EXPECT_EQ(CodingService::recover(other, journal), nullptr);

  // A corrupt header refuses outright.
  std::vector<std::uint8_t> bad = journal;
  bad[0] = 'Z';
  EXPECT_EQ(CodingService::recover(config, bad), nullptr);
}

TEST(CodingService, TornJournalTailIsDroppedAndReservedDeterministically) {
  ServiceConfig config = recovery_config();
  const auto plan = FleetPlan::parse("crash@0.02");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService first(config);
  (void)first.run();
  std::vector<std::uint8_t> journal = first.journal_bytes();

  // Tear 11 bytes off the tail (mid-record): recovery must drop the torn
  // frame, re-serve whatever progress it lost, and still close the run
  // with exact accounting and every session completed.
  ASSERT_GT(journal.size(), 40u);
  journal.resize(journal.size() - 11);
  auto second = CodingService::recover(config, journal);
  ASSERT_NE(second, nullptr);
  const ServiceReport report = second->run();
  EXPECT_TRUE(report.recovered);
  EXPECT_GT(report.journal_dropped_bytes, 0u);
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.completed, report.arrivals);
  EXPECT_EQ(report.bitexact_failures, 0u);
}

TEST(CodingService, ChainedCrashesRecoverRecoverably) {
  // Two crashes in one scenario: the journal compacts across recoveries,
  // so the second recovery replays ONE journal, not a chain of fragments.
  ServiceConfig config = recovery_config();
  config.duration_s = 0.06;
  const auto plan =
      FleetPlan::parse("crash@0.015,recover@0.02,crash@0.035,recover@0.04");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  const ServiceReport report = run_with_recovery(config);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.recoveries, 2u);
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.completed, report.arrivals);
  EXPECT_EQ(report.bitexact_failures, 0u);

  ServiceConfig clean_config = recovery_config();
  clean_config.duration_s = 0.06;
  CodingService clean(clean_config);
  const ServiceReport baseline = clean.run();
  EXPECT_EQ(report.arrivals, baseline.arrivals);
  EXPECT_EQ(report.delivered_digest, baseline.delivered_digest);
}

TEST(CodingService, CrashUnderDeviceFaultsKeepsExactAccounting) {
  // The chaos combination: a device dies, the process crashes, both
  // recover. Accounting must stay exact and output bit-exact; the digest
  // is not compared (deadline sheds may differ across the boundary).
  ServiceConfig config = recovery_config();
  config.offered_load = 0.8;
  config.deadline_factor = 25.0;
  config.duration_s = 0.08;
  const auto plan = FleetPlan::parse(
      "kill@0.01:0,crash@0.02,recover@0.03,restore@0.05:0");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  const ServiceReport report = run_with_recovery(config);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.accounting_exact());
  EXPECT_EQ(report.bitexact_failures, 0u);
  EXPECT_EQ(report.decode_mismatches, 0u);
  EXPECT_GT(report.completed, 0u);
}

// --- tenants and priorities ------------------------------------------------

ServiceConfig tenant_config() {
  ServiceConfig config;
  config.fleet.params = {.n = 8, .k = 64};
  config.fleet.devices = {simgpu::gtx280(), simgpu::gtx280()};
  config.fleet.threads = 1;
  config.segments_per_session = 3;
  config.duration_s = 0.08;
  config.seed = 23;
  config.tenants = {
      {.name = "interactive", .weight = 2.0, .priority = Priority::kInteractive},
      {.name = "batch", .weight = 1.0, .priority = Priority::kBestEffort},
  };
  return config;
}

TEST(CodingService, TenantBurstCannotShedTheOtherTenantsTraffic) {
  ServiceConfig config = tenant_config();
  config.offered_load = 0.8;
  config.admission.capacity = 8;
  config.admission.policy = ShedPolicy::kReject;
  const auto plan = FleetPlan::parse("tenantburst@0.02:batch:8.0");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantReport& interactive = report.tenants[0];
  const TenantReport& batch = report.tenants[1];
  EXPECT_EQ(interactive.name, "interactive");
  EXPECT_GT(batch.arrivals, interactive.arrivals);  // the burst arrived
  EXPECT_GT(batch.shed, 0u);  // and was shed within its own share
  // The burst victimized only the burster: the interactive tenant's shed
  // fraction stays negligible while batch sheds heavily.
  const double interactive_shed =
      static_cast<double>(interactive.shed) /
      static_cast<double>(std::max<std::uint64_t>(1, interactive.arrivals));
  const double batch_shed =
      static_cast<double>(batch.shed) /
      static_cast<double>(std::max<std::uint64_t>(1, batch.arrivals));
  EXPECT_LT(interactive_shed, 0.25 * batch_shed + 0.05)
      << "interactive=" << interactive_shed << " batch=" << batch_shed;
  // Per-tenant accounting folds back to the fleet totals.
  EXPECT_EQ(interactive.arrivals + batch.arrivals, report.arrivals);
  EXPECT_EQ(interactive.shed + batch.shed, report.shed);
}

TEST(CodingService, BestEffortDegradesBeforeInteractive) {
  // Mid-range pressure is where the class bias shows: the ladder hovers
  // around the early rungs, which the +1 bias turns into degraded modes
  // for best-effort while the -1 bias keeps interactive at full
  // fidelity. (At full saturation BOTH classes degrade — and priority
  // ordering starves best-effort entirely — so overload would hide the
  // ordering this test pins.)
  ServiceConfig config = tenant_config();
  config.offered_load = 1.5;
  config.deadline_factor = 1e6;  // no deadline sheds: everyone finishes
  config.admission.capacity = 64;
  config.admission.policy = ShedPolicy::kReject;
  CodingService service(std::move(config));
  const ServiceReport report = service.run();

  EXPECT_TRUE(report.accounting_exact());
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_GT(report.dispatches_by_class[static_cast<int>(Priority::kInteractive)],
            0u);
  EXPECT_GT(report.dispatches_by_class[static_cast<int>(Priority::kBestEffort)],
            0u);
  // Class-biased ladder entry: best-effort sessions see degraded modes
  // while interactive ones are still served at full fidelity, so the
  // degraded FRACTION must order strictly.
  const TenantReport& interactive = report.tenants[0];
  const TenantReport& batch = report.tenants[1];
  const double interactive_frac =
      static_cast<double>(interactive.degraded) /
      static_cast<double>(
          std::max<std::uint64_t>(1, interactive.completed + interactive.degraded));
  const double batch_frac =
      static_cast<double>(batch.degraded) /
      static_cast<double>(
          std::max<std::uint64_t>(1, batch.completed + batch.degraded));
  EXPECT_GT(batch.degraded, 0u);
  EXPECT_LT(interactive_frac, batch_frac)
      << "interactive=" << interactive_frac << " batch=" << batch_frac;
}

TEST(CodingService, TenantAccountingSurvivesCrashRecovery) {
  ServiceConfig config = tenant_config();
  config.offered_load = 0.4;
  config.deadline_factor = 1e6;
  const auto plan = FleetPlan::parse("crash@0.03,recover@0.035");
  ASSERT_TRUE(plan.has_value());
  config.plan = *plan;
  const ServiceReport report = run_with_recovery(config);

  ServiceConfig clean_config = tenant_config();
  clean_config.offered_load = 0.4;
  clean_config.deadline_factor = 1e6;
  CodingService clean(clean_config);
  const ServiceReport baseline = clean.run();

  EXPECT_TRUE(report.accounting_exact());
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].arrivals, baseline.tenants[0].arrivals);
  EXPECT_EQ(report.tenants[1].arrivals, baseline.tenants[1].arrivals);
  EXPECT_EQ(report.delivered_digest, baseline.delivered_digest);
}

}  // namespace
}  // namespace extnc::serve
