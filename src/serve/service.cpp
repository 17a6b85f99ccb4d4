#include "serve/service.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <utility>

#include "gpu/gpu_model.h"
#include "util/assert.h"
#include "util/checksum.h"
#include "util/metrics_registry.h"

namespace extnc::serve {

namespace {

// Domain separators for the indexed splitmix draws: the arrival-gap and
// tenant-pick streams must be independent of each other and of job seeds.
constexpr std::uint64_t kArrivalSalt = 0xa11a5eedULL;
constexpr std::uint64_t kTenantSalt = 0x7e4a47a9ULL;

// Thinned service emits n + kBlocksExtraThinned coded blocks per segment.
constexpr std::size_t kBlocksExtraThinned = 1;

// The supervisor's time constants, as multiples of the nominal segment
// time (a 1-second default watchdog is absurd when a segment takes 200
// microseconds). They replace fleet.supervisor's watchdog budget, initial
// backoff and breaker cool-down.
constexpr double kWatchdogFactor = 20.0;
constexpr double kBackoffFactorOfNominal = 1.0;
constexpr double kCooldownFactor = 200.0;

std::optional<double> parse_number(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

void set_error(std::string* error, std::string_view token,
               std::string_view what) {
  if (error == nullptr) return;
  *error = "plan token \"";
  *error += token;
  *error += "\": ";
  *error += what;
}

// Indexed splitmix draw in [0, 1): a pure function of (seed, salt,
// index), so a recovered process regenerates the exact stream the lost
// one was consuming without journaling any RNG state.
double splitmix_unit(std::uint64_t seed, std::uint64_t salt,
                     std::uint64_t index) {
  std::uint64_t x = (seed ^ salt) + (index + 1) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

void fold_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void fold_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fold_u64(out, bits);
}

}  // namespace

// --- FleetPlan -------------------------------------------------------------

std::optional<FleetPlan> FleetPlan::parse(std::string_view spec,
                                          std::string* error) {
  FleetPlan plan;
  double last_time = -1;
  std::size_t pos = 0;
  while (pos <= spec.size() && !spec.empty()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view token =
        spec.substr(pos, comma == std::string_view::npos ? spec.size() - pos
                                                         : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) {
      set_error(error, token, "empty token");
      return std::nullopt;
    }

    const std::size_t at = token.find('@');
    if (at == std::string_view::npos) {
      set_error(error, token, "expected <kind>@<time>...");
      return std::nullopt;
    }
    const std::string_view kind = token.substr(0, at);
    const std::string_view rest = token.substr(at + 1);
    const std::size_t colon = rest.find(':');
    const auto time = parse_number(
        colon == std::string_view::npos ? rest : rest.substr(0, colon));
    if (!time || *time < 0) {
      set_error(error, token, "bad timestamp");
      return std::nullopt;
    }
    // A plan is a timeline: tokens must be in time order. Out-of-order
    // specs are almost always a typo'd timestamp — reject them loudly
    // instead of silently reordering the scenario.
    if (*time < last_time) {
      set_error(error, token, "non-monotone timestamp");
      return std::nullopt;
    }
    last_time = *time;

    if (kind == "crash" || kind == "recover") {
      if (colon != std::string_view::npos) {
        set_error(error, token, "takes no value");
        return std::nullopt;
      }
      (kind == "crash" ? plan.crashes : plan.recovers).push_back(*time);
      if (comma == std::string_view::npos) break;
      continue;
    }
    if (colon == std::string_view::npos) {
      set_error(error, token, "expected <kind>@<time>:<value>");
      return std::nullopt;
    }
    const std::string_view value_text = rest.substr(colon + 1);

    if (kind == "kill" || kind == "restore") {
      const auto value = parse_number(value_text);
      if (!value || *value < 0 || *value != std::floor(*value)) {
        set_error(error, token, "bad device id");
        return std::nullopt;
      }
      plan.events.push_back(FleetEvent{
          .at = *time,
          .device = static_cast<std::size_t>(*value),
          .kill = kind == "kill"});
    } else if (kind == "load") {
      const auto value = parse_number(value_text);
      if (!value || *value <= 0) {
        set_error(error, token, "bad load multiplier");
        return std::nullopt;
      }
      plan.load.push_back(LoadPhase{.at = *time, .multiplier = *value});
    } else if (kind == "tenantburst") {
      const std::size_t colon2 = value_text.find(':');
      if (colon2 == std::string_view::npos) {
        set_error(error, token, "expected tenantburst@<t>:<name>:<mult>");
        return std::nullopt;
      }
      const std::string_view name = value_text.substr(0, colon2);
      const auto mult = parse_number(value_text.substr(colon2 + 1));
      if (name.empty() || !mult || *mult <= 0) {
        set_error(error, token, "bad tenant name or multiplier");
        return std::nullopt;
      }
      plan.bursts.push_back(TenantBurst{
          .at = *time, .tenant = std::string(name), .multiplier = *mult});
    } else {
      set_error(error, token, "unknown kind");
      return std::nullopt;
    }
    if (comma == std::string_view::npos) break;
  }
  return plan;
}

std::optional<std::string> FleetPlan::validate(std::size_t devices) const {
  // Device kill/restore sequences: in range, no duplicate (device, time),
  // and alternating per device — a device starts alive, so its first
  // event must be a kill, every kill must hit an alive device and every
  // restore a dead one.
  for (std::size_t d = 0; d < devices; ++d) {
    bool alive = true;
    double last_at = -1;
    for (const FleetEvent& event : events) {
      if (event.device != d) continue;
      if (event.at == last_at) {
        return "duplicate events for device " + std::to_string(d) +
               " at t=" + std::to_string(event.at);
      }
      last_at = event.at;
      if (event.kill && !alive) {
        return "kill of already-dead device " + std::to_string(d) +
               " at t=" + std::to_string(event.at);
      }
      if (!event.kill && alive) {
        return "restore of alive device " + std::to_string(d) +
               " at t=" + std::to_string(event.at);
      }
      alive = !event.kill;
    }
  }
  for (const FleetEvent& event : events) {
    if (event.device >= devices) {
      return "device id " + std::to_string(event.device) +
             " out of range (fleet has " + std::to_string(devices) +
             " devices)";
    }
  }
  // Crash/recover alternation: crash_0 < recover_0 < crash_1 < ... with
  // at most one trailing crash left unrecovered (the process-level flow
  // recovers it from a separate invocation).
  if (recovers.size() > crashes.size()) {
    return "recover without a preceding crash";
  }
  if (crashes.size() > recovers.size() + 1) {
    return "more than one crash without a recover between them";
  }
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i < recovers.size() && recovers[i] <= crashes[i]) {
      return "recover at t=" + std::to_string(recovers[i]) +
             " not after its crash at t=" + std::to_string(crashes[i]);
    }
    if (i > 0 && crashes[i] <= recovers[i - 1]) {
      return "crash at t=" + std::to_string(crashes[i]) +
             " not after the previous recover";
    }
  }
  return std::nullopt;
}

// --- CodingService ---------------------------------------------------------

CodingService::CodingService(ServiceConfig config, simgpu::Profiler* profiler)
    : config_(std::move(config)),
      profiler_(profiler),
      tenants_(config_.tenants.empty() ? std::vector<TenantSpec>{{}}
                                       : config_.tenants),
      queue_([&] {
        AdmissionConfig admission = config_.admission;
        admission.tenant_weights.clear();
        for (const TenantSpec& tenant : tenants_) {
          EXTNC_CHECK(tenant.weight > 0);
          admission.tenant_weights.push_back(tenant.weight);
        }
        return admission;
      }()),
      ladder_(config_.ladder) {
  EXTNC_CHECK(!config_.fleet.devices.empty());
  EXTNC_CHECK(config_.segments_per_session >= 1);
  EXTNC_CHECK(config_.duration_s > 0);
  EXTNC_CHECK(config_.offered_load > 0);
  EXTNC_CHECK(tenants_.size() <= 0xffff);
  {
    const auto plan_error = config_.plan.validate(config_.fleet.devices.size());
    EXTNC_CHECK(!plan_error.has_value());
  }
  // Resolve tenant-burst names against the tenant table.
  for (const TenantBurst& burst : config_.plan.bursts) {
    std::optional<std::uint16_t> index;
    for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].name == burst.tenant) index = t;
    }
    EXTNC_CHECK(index.has_value());  // CLI validates names with a message
    bursts_.push_back(ResolvedBurst{.at = burst.at,
                                    .tenant = *index,
                                    .multiplier = burst.multiplier});
  }
  for (const TenantSpec& tenant : tenants_) base_weight_sum_ += tenant.weight;

  // Nominal segment time, computed from the device models BEFORE the
  // fleet exists so the supervisor's time constants can be scaled to the
  // workload they will actually police.
  const std::size_t blocks_full = config_.fleet.params.n + config_.blocks_extra;
  double sum = 0;
  for (const auto& spec : config_.fleet.devices) {
    gpu::EncodeModelOptions options;
    options.include_preprocessing = false;
    const double mb_per_s =
        gpu::model_encode_bandwidth(spec, config_.fleet.scheme,
                                    config_.fleet.params, options)
            .mb_per_s;
    EXTNC_CHECK(mb_per_s > 0);
    sum += static_cast<double>(blocks_full * config_.fleet.params.k) /
               (mb_per_s * 1e6) +
           kDispatchOverheadS;
  }
  const double nominal_segment =
      sum / static_cast<double>(config_.fleet.devices.size());
  auto& supervisor = config_.fleet.supervisor;
  supervisor.watchdog_budget_s = kWatchdogFactor * nominal_segment;
  supervisor.backoff_initial_s = kBackoffFactorOfNominal * nominal_segment;
  supervisor.breaker_cooldown_s = kCooldownFactor * nominal_segment;

  fleet_ = std::make_unique<FleetScheduler>(config_.fleet,
                                            [this] { return sim_.now(); });
  if (profiler_ != nullptr) fleet_->set_trace(profiler_);
  device_load_.assign(fleet_->size(), 0);

  report_.nominal_segment_s = fleet_->nominal_segment_s(blocks_full);
  report_.nominal_session_s =
      report_.nominal_segment_s *
      static_cast<double>(config_.segments_per_session);
  // Offered load 1.0 == the whole fleet encoding full-density sessions
  // back to back with no faults and no queueing.
  base_rate_hz_ = config_.offered_load *
                  static_cast<double>(fleet_->size()) /
                  report_.nominal_session_s;
  report_.offered_rate_hz = base_rate_hz_;
  hedge_threshold_s_ = config_.hedge_factor * report_.nominal_segment_s;

  report_.tenants.resize(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    report_.tenants[t].name = tenants_[t].name;
  }

  // The fingerprint binds journals to this config: every knob that shapes
  // the deterministic arrival/job streams or the accounting goes in.
  std::vector<std::uint8_t> fp;
  fold_u64(fp, config_.seed);
  fold_u64(fp, config_.fleet.params.n);
  fold_u64(fp, config_.fleet.params.k);
  fold_u64(fp, config_.fleet.devices.size());
  fold_u64(fp, config_.segments_per_session);
  fold_u64(fp, config_.blocks_extra);
  fold_u64(fp, kBlocksExtraThinned);  // same slot: old journals recover
  fold_f64(fp, config_.offered_load);
  fold_f64(fp, config_.duration_s);
  fold_f64(fp, config_.deadline_factor);
  fold_f64(fp, config_.hedge_factor);
  fold_u64(fp, config_.admission.capacity);
  fold_u64(fp, static_cast<std::uint64_t>(config_.admission.policy));
  fold_f64(fp, config_.admission.degrade_headroom);
  fold_u64(fp, tenants_.size());
  for (const TenantSpec& tenant : tenants_) {
    fold_u64(fp, digest64({reinterpret_cast<const std::uint8_t*>(
                               tenant.name.data()),
                           tenant.name.size()}));
    fold_f64(fp, tenant.weight);
    fold_u64(fp, static_cast<std::uint64_t>(tenant.priority));
  }
  for (const FleetEvent& event : config_.plan.events) {
    fold_f64(fp, event.at);
    fold_u64(fp, event.device);
    fold_u64(fp, event.kill ? 1 : 0);
  }
  for (const LoadPhase& phase : config_.plan.load) {
    fold_f64(fp, phase.at);
    fold_f64(fp, phase.multiplier);
  }
  for (const ResolvedBurst& burst : bursts_) {
    fold_f64(fp, burst.at);
    fold_u64(fp, burst.tenant);
    fold_f64(fp, burst.multiplier);
  }
  fingerprint_ = digest64({fp.data(), fp.size()}, 0x4a6e4c0deULL);
  journal_ = std::make_unique<Journal>(fingerprint_);
}

CodingService::~CodingService() = default;

const std::vector<std::uint8_t>& CodingService::journal_bytes() const {
  return journal_->bytes();
}

void CodingService::journal_append(const JournalRecord& record) {
  journal_->append(record);
}

std::unique_ptr<CodingService> CodingService::recover(
    ServiceConfig config, std::span<const std::uint8_t> journal,
    std::optional<double> recover_at_s, simgpu::Profiler* profiler) {
  const auto image = Journal::parse(journal);
  if (!image) return nullptr;  // bad header: not a journal we can trust
  auto service =
      std::make_unique<CodingService>(std::move(config), profiler);
  if (image->fingerprint != service->fingerprint_) return nullptr;
  service->restore_from(*image, recover_at_s);
  return service;
}

void CodingService::restore_from(const JournalImage& image,
                                 std::optional<double> recover_at_s) {
  double last_at = 0;
  std::uint64_t prior_recoveries = 0;
  std::vector<std::uint64_t> admit_order;
  for (const JournalRecord& record : image.records) {
    last_at = std::max(last_at, record.at);
    // Compaction: the surviving records carry over verbatim, so a second
    // crash recovers from one journal, not a chain of fragments.
    journal_->append(record);
    switch (record.type) {
      case JournalRecordType::kArrival: {
        EXTNC_CHECK(record.session == sessions_.size());
        EXTNC_CHECK(record.tenant < tenants_.size());
        Session session;
        session.id = record.session;
        session.arrival_s = record.at;
        session.deadline_s = record.deadline_s;
        session.segments = record.segments;
        session.tenant = record.tenant;
        session.priority = static_cast<Priority>(record.priority);
        sessions_.push_back(std::move(session));
        ++report_.arrivals;
        ++report_.tenants[record.tenant].arrivals;
        break;
      }
      case JournalRecordType::kAdmit: {
        Session& session = sessions_.at(record.session);
        session.admitted_s = record.at;
        session.force_degraded = record.force_degraded;
        ++report_.admitted;
        admit_order.push_back(record.session);
        break;
      }
      case JournalRecordType::kSegmentDone: {
        Session& session = sessions_.at(record.session);
        EXTNC_CHECK(record.segment < session.segments);
        EXTNC_CHECK(session.segments_done == record.segment);
        if (session.segment_crcs.size() < session.segments) {
          session.segment_crcs.resize(session.segments, 0);
        }
        session.segment_crcs[record.segment] = record.payload_crc;
        ++session.segments_done;
        if (record.degraded) session.served_degraded = true;
        if (record.rank_short) {
          session.rank_short = true;
          ++report_.rank_short_segments;
        }
        ++report_.segments_served;
        break;
      }
      case JournalRecordType::kRung:
        EXTNC_CHECK(record.rung < kServiceModes);
        ladder_.restore_level(record.rung);
        last_journaled_rung_ = record.rung;
        break;
      case JournalRecordType::kTerminal: {
        Session& session = sessions_.at(record.session);
        EXTNC_CHECK(!is_terminal(session.state));
        const auto state = static_cast<SessionState>(record.state);
        EXTNC_CHECK(is_terminal(state));
        session.state = state;
        session.finished_s = record.at;
        apply_terminal_counters(
            session, state, static_cast<ShedReason>(record.shed_reason),
            /*live=*/false);
        break;
      }
      case JournalRecordType::kRecovered:
        ++prior_recoveries;
        break;
    }
  }

  const double recover_time =
      std::max(recover_at_s.value_or(last_at), last_at);
  start_time_ = recover_time;
  recovered_ = true;
  report_.recovered = true;
  report_.recovered_at_s = recover_time;
  report_.recoveries = prior_recoveries + 1;
  report_.journal_dropped_bytes += image.dropped_bytes;
  journal_->append(JournalRecord{.type = JournalRecordType::kRecovered,
                                 .at = recover_time});
  metrics::count("serve.recoveries");

  // Admitted, non-terminal sessions re-enter the queue in admission order
  // (bypassing policy: their admission is already on the record). Their
  // partial progress stands — segments_done picks up where it left off,
  // and the deterministic job seeds make the remaining segments
  // byte-identical to what the lost process would have produced.
  for (const std::uint64_t id : admit_order) {
    Session& session = sessions_[id];
    if (is_terminal(session.state)) continue;
    if (session.segments_done >= session.segments) {
      // Every segment was delivered but the terminal record was torn off
      // with the tail: close the session now instead of re-dispatching a
      // phantom segment.
      finish_at(session,
                session.served_degraded || session.force_degraded
                    ? SessionState::kDegraded
                    : SessionState::kCompleted,
                ShedReason::kNone, recover_time);
      continue;
    }
    session.state = SessionState::kQueued;
    session.device = SIZE_MAX;
    queue_.restore(id, session.tenant, session.priority);
  }

  // Arrivals whose admission OUTCOME was lost with the torn tail (a
  // kArrival with neither kAdmit nor kTerminal behind it): re-run the
  // admission decision at the recovery point — the client is still
  // waiting for an answer, and leaving the session kQueued forever would
  // break the exact-accounting contract.
  for (Session& session : sessions_) {
    if (is_terminal(session.state) || session.admitted_s >= 0) continue;
    const AdmissionDecision decision =
        queue_.offer(session.id, session.tenant, session.priority);
    if (decision.evicted) {
      finish_at(sessions_[*decision.evicted], SessionState::kShed,
                ShedReason::kEvicted, recover_time);
    }
    if (!decision.admitted) {
      finish_at(session, SessionState::kShed, ShedReason::kRejected,
                recover_time);
      continue;
    }
    ++report_.admitted;
    session.admitted_s = recover_time;
    session.force_degraded = decision.force_degraded;
    journal_->append(JournalRecord{.type = JournalRecordType::kAdmit,
                                   .at = recover_time,
                                   .session = session.id,
                                   .force_degraded = decision.force_degraded});
  }

  // Replay the fleet timeline up to the recovery point (kills and
  // restores the dead process already acted on). A device that was
  // mid-ramp at the crash restarts its ramp from the bottom — ramp state
  // is deliberately not journaled; re-warming twice is safe, snapping to
  // full share is not.
  for (const FleetEvent& event : config_.plan.events) {
    if (event.at > recover_time) continue;
    if (event.kill) {
      fleet_->kill(event.device);
    } else {
      fleet_->restore(event.device);
    }
  }

  // Fast-forward the nominal arrival timeline past the arrivals already
  // journaled: the next draw the recovered process makes is the exact one
  // the lost process would have made.
  next_arrival_index_ = 0;
  next_arrival_nominal_s_ = 0;
  for (std::uint64_t i = 0; i < report_.arrivals; ++i) {
    const double rate = arrival_rate_at(next_arrival_nominal_s_);
    EXTNC_CHECK(rate > 0);
    const double u = splitmix_unit(config_.seed, kArrivalSalt, i);
    next_arrival_nominal_s_ += -std::log1p(-u) / rate;
    next_arrival_index_ = i + 1;
  }
}

void CodingService::schedule_plan() {
  for (const FleetEvent& event : config_.plan.events) {
    EXTNC_CHECK(event.device < fleet_->size());
    // Events at or before the recovery point were applied by
    // restore_from(); only the future is scheduled.
    if (recovered_ && event.at <= start_time_) continue;
    sim_.schedule_at(std::max(event.at, start_time_), [this, event] {
      if (event.kill) {
        fleet_->kill(event.device);
        metrics::count("serve.device_kills");
      } else {
        fleet_->restore(event.device);
        metrics::count("serve.device_restores");
        pump();  // the restored device can pull waiting sessions
      }
    });
  }
  // The first scripted crash this generation has not lived through yet:
  // every past recovery consumed one crash (the journal's kRecovered
  // markers count them), and later crashes belong to later generations.
  std::uint64_t consumed = report_.recoveries;
  for (const double at : config_.plan.crashes) {
    if (consumed > 0) {
      --consumed;
      continue;
    }
    if (at <= start_time_) continue;
    sim_.schedule_at(at, [this] {
      crashed_ = true;
      metrics::count("serve.crashes");
    });
    break;
  }
}

ServiceReport CodingService::run() {
  EXTNC_CHECK(!ran_);
  ran_ = true;

  schedule_plan();
  if (recovered_) {
    // Restart dispatch for the rebuilt queue at the recovery point.
    sim_.schedule_at(start_time_, [this] { pump(); });
  }
  schedule_next_arrival();
  while (!crashed_ && sim_.step()) {
  }

  if (crashed_) {
    // The scripted crash point: the process is "gone". Everything after
    // this line is what a restarted process can reconstruct from
    // journal_bytes() — the report returned here is partial (accounting
    // deliberately not closed) and only useful for inspection.
    report_.crashed = true;
    report_.crash_at_s = sim_.now();
    finalize_report();
    return report_;
  }

  // Sessions stranded in the queue (the whole fleet died): the service
  // could not produce their output — failed, not silently lost.
  while (const auto id = queue_.pop()) {
    Session& session = sessions_[*id];
    if (!is_terminal(session.state)) finish(session, SessionState::kFailed);
  }

  finalize_report();
  EXTNC_CHECK(report_.accounting_exact());
  return report_;
}

void CodingService::finalize_report() {
  report_.sim_end_s = sim_.now();
  report_.ladder_transitions = ladder_.transitions();
  report_.devices = fleet_->fleet_health();
  report_.ramp_events = fleet_->ramp_events();
  report_.ramp_collapses = fleet_->ramp_collapses();
  report_.journal_records = journal_->records();
  // Delivered-payload digest over full-fidelity completions, in session
  // order: byte-identical deliveries fold to the same value no matter how
  // many crash/recover boundaries the run crossed.
  std::uint32_t state = crc32c_init();
  for (const Session& session : sessions_) {
    if (session.state != SessionState::kCompleted) continue;
    std::uint8_t buffer[8];
    for (int i = 0; i < 8; ++i) {
      buffer[i] = static_cast<std::uint8_t>(session.id >> (8 * i));
    }
    state = crc32c_update(state, buffer);
    for (const std::uint32_t crc : session.segment_crcs) {
      for (int i = 0; i < 4; ++i) {
        buffer[i] = static_cast<std::uint8_t>(crc >> (8 * i));
      }
      state = crc32c_update(state, {buffer, 4});
    }
  }
  report_.delivered_digest = crc32c_final(state);
}

double CodingService::load_multiplier_at(double t) const {
  double multiplier = 1.0;
  for (const LoadPhase& phase : config_.plan.load) {
    if (phase.at <= t) multiplier = phase.multiplier;
  }
  return multiplier;
}

double CodingService::tenant_weight_at(std::uint16_t tenant, double t) const {
  double weight = tenants_[tenant].weight;
  for (const ResolvedBurst& burst : bursts_) {
    if (burst.tenant == tenant && burst.at <= t) weight *= burst.multiplier;
  }
  return weight;
}

double CodingService::arrival_rate_at(double t) const {
  double weight_sum = 0;
  for (std::uint16_t tenant = 0; tenant < tenants_.size(); ++tenant) {
    weight_sum += tenant_weight_at(tenant, t);
  }
  // A tenant burst is EXTRA offered traffic, so it scales the total rate
  // by the inflated weight mass (and skews the mix toward the burster).
  return base_rate_hz_ * load_multiplier_at(t) *
         (weight_sum / base_weight_sum_);
}

double CodingService::unit_draw(std::uint64_t index,
                                std::uint64_t salt) const {
  return splitmix_unit(config_.seed, salt, index);
}

std::uint16_t CodingService::draw_tenant(std::uint64_t index,
                                         double nominal_at) const {
  if (tenants_.size() == 1) return 0;
  double total = 0;
  for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
    total += tenant_weight_at(t, nominal_at);
  }
  const double pick = unit_draw(index, kTenantSalt) * total;
  double accumulated = 0;
  for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
    accumulated += tenant_weight_at(t, nominal_at);
    if (pick < accumulated) return t;
  }
  return static_cast<std::uint16_t>(tenants_.size() - 1);
}

void CodingService::schedule_next_arrival() {
  // Arrivals live on a NOMINAL timeline — each gap is a pure function of
  // (seed, index) and the scripted rate at the previous nominal arrival —
  // so a recovered process regenerates the exact sequence the lost one
  // was producing. Arrivals whose nominal time fell inside the downtime
  // window fire at the recovery point (the clamp below), like clients
  // retrying the moment the service is back.
  const double rate = arrival_rate_at(next_arrival_nominal_s_);
  EXTNC_CHECK(rate > 0);
  const std::uint64_t index = next_arrival_index_;
  const double u = unit_draw(index, kArrivalSalt);
  const double at = next_arrival_nominal_s_ + -std::log1p(-u) / rate;
  if (at >= config_.duration_s) return;
  next_arrival_nominal_s_ = at;
  next_arrival_index_ = index + 1;
  sim_.schedule_at(std::max(at, start_time_), [this, index, at] {
    on_arrival(index, at);
    schedule_next_arrival();
  });
}

void CodingService::on_arrival(std::uint64_t index, double nominal_at) {
  const std::uint64_t id = sessions_.size();
  EXTNC_CHECK(id == index);
  const std::uint16_t tenant = draw_tenant(index, nominal_at);
  const TenantSpec& spec = tenants_[tenant];
  {
    Session session;
    session.id = id;
    session.arrival_s = sim_.now();
    session.deadline_s =
        session.arrival_s +
        config_.deadline_factor * report_.nominal_session_s;
    session.segments = config_.segments_per_session;
    session.tenant = tenant;
    session.priority = spec.priority;
    sessions_.push_back(session);
  }
  Session& session = sessions_[id];
  ++report_.arrivals;
  ++report_.tenants[tenant].arrivals;
  metrics::count("serve.arrivals");
  journal_append(JournalRecord{
      .type = JournalRecordType::kArrival,
      .at = session.arrival_s,
      .session = id,
      .deadline_s = session.deadline_s,
      .segments = static_cast<std::uint32_t>(session.segments),
      .tenant = tenant,
      .priority = static_cast<std::uint8_t>(spec.priority)});

  const AdmissionDecision decision =
      queue_.offer(id, tenant, spec.priority);
  metrics::gauge("serve.queue_depth", static_cast<double>(queue_.depth()));
  if (decision.evicted) {
    finish(sessions_[*decision.evicted], SessionState::kShed,
           ShedReason::kEvicted);
  }
  if (!decision.admitted) {
    finish(session, SessionState::kShed, ShedReason::kRejected);
    return;
  }
  ++report_.admitted;
  metrics::count("serve.admitted");
  session.admitted_s = sim_.now();
  session.force_degraded = decision.force_degraded;
  journal_append(JournalRecord{.type = JournalRecordType::kAdmit,
                               .at = session.admitted_s,
                               .session = id,
                               .force_degraded = decision.force_degraded});
  pump();
}

void CodingService::pump() {
  // Ramping devices that already passed on an offer this pass are skipped
  // (their declined opportunity does not come back until the next pump).
  std::vector<char> declined(fleet_->size(), 0);
  for (;;) {
    if (queue_.empty()) return;
    // Least-loaded alive device with no session assigned (sharding: one
    // session per device at a time; re-sharded refugees may stack).
    std::optional<std::size_t> best;
    for (std::size_t d = 0; d < fleet_->size(); ++d) {
      if (declined[d] != 0 || !fleet_->alive(d) || device_load_[d] != 0) {
        continue;
      }
      if (!best || fleet_->busy_until(d) < fleet_->busy_until(*best)) best = d;
    }
    if (!best) return;
    // Ramped restore: a re-warming device only takes its staged share of
    // dispatch opportunities; when it passes, the next-best device gets
    // the session instead (or it waits — better a short wait than a
    // retry storm into a half-healed device).
    if (!fleet_->ramp_offer(*best)) {
      declined[*best] = 1;
      continue;
    }
    const auto id = queue_.pop();
    Session& session = sessions_[*id];
    if (sim_.now() >= session.deadline_s) {
      finish(session, SessionState::kShed, ShedReason::kDeadline);
      continue;
    }
    session.state = SessionState::kServing;
    session.device = *best;
    ++device_load_[*best];
    if (session.first_dispatch_s < 0) session.first_dispatch_s = sim_.now();
    dispatch_segment(*id);
  }
}

void CodingService::dispatch_segment(std::uint64_t id) {
  Session& session = sessions_[id];
  const double now = sim_.now();
  if (now >= session.deadline_s) {
    finish(session, SessionState::kShed, ShedReason::kDeadline);
    pump();
    return;
  }
  // The session's shard died while another device carried its last
  // segment (hedge win): re-shard before dispatching.
  if (!fleet_->alive(session.device)) {
    const auto next = fleet_->pick_device();
    if (!next) {
      finish(session, SessionState::kFailed);
      pump();
      return;
    }
    --device_load_[session.device];
    ++device_load_[*next];
    session.device = *next;
    ++report_.redispatches;
    metrics::count("serve.redispatches");
  }

  ladder_.update(queue_.pressure());
  const int rung = static_cast<int>(ladder_.mode());
  if (rung != last_journaled_rung_) {
    last_journaled_rung_ = rung;
    journal_append(JournalRecord{.type = JournalRecordType::kRung,
                                 .at = now,
                                 .rung = static_cast<std::uint8_t>(rung)});
  }
  // The rung is entered per priority class: best-effort degrades a rung
  // early, interactive a rung late.
  ServiceMode mode = session.force_degraded
                         ? ServiceMode::kThinned
                         : ladder_.mode_for(session.priority);
  ++report_.mode_dispatches[static_cast<std::size_t>(mode)];
  ++report_.dispatches_by_class[static_cast<std::size_t>(session.priority)];
  const bool degraded_mode =
      mode == ServiceMode::kCpuCodec || mode == ServiceMode::kThinned;
  if (degraded_mode) session.served_degraded = true;

  const std::size_t blocks = blocks_for(mode);
  const std::uint64_t seed = job_seed(id, session.segments_done);
  const std::size_t device = session.device;

  coding::CodedBatch batch;
  const SegmentResult result = fleet_->encode_segment(
      device, seed, blocks, mode, config_.verify_decode ? &batch : nullptr);
  if (!result.bit_exact) ++report_.bitexact_failures;
  bool rank_short_seg = false;
  if (config_.verify_decode) {
    switch (fleet_->verify_decode(batch)) {
      case DecodeCheck::kBitExact:
        break;
      case DecodeCheck::kRankShort:
        session.rank_short = true;
        rank_short_seg = true;
        break;
      case DecodeCheck::kMismatch:
        ++report_.decode_mismatches;
        break;
    }
  }

  const double start = std::max(now, fleet_->busy_until(device));
  const double done = start + result.service_s;
  fleet_->set_busy_until(device, done);

  std::size_t winner = device;
  std::uint64_t winner_epoch = fleet_->epoch(device);
  double winner_done = done;
  // Hedged re-dispatch: a straggler (faulted retries, hung attempts, CPU
  // fallback) is replicated on the least-loaded other device. Same seed,
  // same bytes — whichever finishes first delivers.
  if (result.service_s > hedge_threshold_s_ &&
      mode != ServiceMode::kCpuCodec) {
    if (const auto other = fleet_->pick_device(device)) {
      ++report_.hedges;
      metrics::count("serve.hedges");
      const SegmentResult replica =
          fleet_->encode_segment(*other, seed, blocks, mode, nullptr);
      const double replica_start =
          std::max(now, fleet_->busy_until(*other));
      const double replica_done = replica_start + replica.service_s;
      fleet_->set_busy_until(*other, replica_done);
      if (replica_done < winner_done) {
        winner = *other;
        winner_epoch = fleet_->epoch(*other);
        winner_done = replica_done;
        ++report_.hedge_wins;
        metrics::count("serve.hedge_wins");
      }
    }
  }

  const std::size_t segment = session.segments_done;
  const std::uint32_t payload_crc = result.payload_crc;
  sim_.schedule_at(winner_done, [this, id, segment, winner, winner_epoch,
                                 now, payload_crc, degraded_mode,
                                 rank_short_seg] {
    on_segment_done(id, segment, winner, winner_epoch, now, payload_crc,
                    degraded_mode, rank_short_seg);
  });
}

void CodingService::on_segment_done(std::uint64_t id, std::size_t segment,
                                    std::size_t device, std::uint64_t epoch,
                                    double dispatched_s,
                                    std::uint32_t payload_crc,
                                    bool degraded_mode, bool rank_short_seg) {
  Session& session = sessions_[id];
  if (is_terminal(session.state)) return;
  EXTNC_CHECK(session.segments_done == segment);

  if (fleet_->epoch(device) != epoch || !fleet_->alive(device)) {
    // The incarnation that produced these bytes died before delivering.
    // Deterministic seeds make the re-dispatch byte-identical.
    ++report_.stale_completions;
    metrics::count("serve.stale_completions");
    dispatch_segment(id);  // re-shards off a dead device internally
    return;
  }

  const double latency = sim_.now() - dispatched_s;
  report_.segment_latency_s.observe(latency);
  metrics::observe("serve.segment_latency_s", latency);
  if (fleet_->all_healthy()) {
    report_.segment_latency_healthy_s.observe(latency);
  } else {
    report_.segment_latency_faulted_s.observe(latency);
  }

  if (session.segment_crcs.size() < session.segments) {
    session.segment_crcs.resize(session.segments, 0);
  }
  session.segment_crcs[segment] = payload_crc;
  ++report_.segments_served;
  if (rank_short_seg) ++report_.rank_short_segments;
  journal_append(JournalRecord{
      .type = JournalRecordType::kSegmentDone,
      .at = sim_.now(),
      .session = id,
      .segment = static_cast<std::uint32_t>(segment),
      .payload_crc = payload_crc,
      .degraded = degraded_mode,
      .rank_short = rank_short_seg});

  ++session.segments_done;
  if (session.segments_done == session.segments) {
    finish(session, session.served_degraded || session.force_degraded
                        ? SessionState::kDegraded
                        : SessionState::kCompleted);
    pump();
  } else {
    dispatch_segment(id);
  }
}

void CodingService::apply_terminal_counters(const Session& session,
                                            SessionState state,
                                            ShedReason reason, bool live) {
  TenantReport& tenant = report_.tenants[session.tenant];
  switch (state) {
    case SessionState::kCompleted:
      ++report_.completed;
      ++tenant.completed;
      if (live) metrics::count("serve.completed");
      break;
    case SessionState::kDegraded:
      ++report_.degraded;
      ++tenant.degraded;
      if (live) metrics::count("serve.degraded");
      break;
    case SessionState::kShed:
      ++report_.shed;
      ++tenant.shed;
      if (live) metrics::count("serve.shed");
      switch (reason) {
        case ShedReason::kRejected:
          ++report_.shed_rejected;
          if (live) metrics::count("serve.shed_rejected");
          break;
        case ShedReason::kEvicted:
          ++report_.shed_evicted;
          if (live) metrics::count("serve.shed_evicted");
          break;
        case ShedReason::kDeadline:
          ++report_.shed_deadline;
          if (live) metrics::count("serve.shed_deadline");
          break;
        case ShedReason::kNone:
          break;
      }
      break;
    case SessionState::kFailed:
      ++report_.failed;
      ++tenant.failed;
      if (live) metrics::count("serve.failed");
      break;
    case SessionState::kQueued:
    case SessionState::kServing:
      EXTNC_CHECK(false);
  }
}

void CodingService::finish(Session& session, SessionState state,
                           ShedReason reason) {
  finish_at(session, state, reason, sim_.now());
}

void CodingService::finish_at(Session& session, SessionState state,
                              ShedReason reason, double at) {
  EXTNC_CHECK(!is_terminal(session.state));
  EXTNC_CHECK(is_terminal(state));
  if (session.state == SessionState::kServing) {
    EXTNC_CHECK(device_load_[session.device] > 0);
    --device_load_[session.device];
  }
  session.state = state;
  session.finished_s = at;
  journal_append(JournalRecord{
      .type = JournalRecordType::kTerminal,
      .at = session.finished_s,
      .session = session.id,
      .state = static_cast<std::uint8_t>(state),
      .shed_reason = static_cast<std::uint8_t>(reason)});
  apply_terminal_counters(session, state, reason, /*live=*/true);
  if (state == SessionState::kCompleted || state == SessionState::kDegraded) {
    const double latency = session.finished_s - session.arrival_s;
    report_.session_latency_s.observe(latency);
    metrics::observe("serve.session_latency_s", latency);
  }
}

std::uint64_t CodingService::job_seed(std::uint64_t session,
                                      std::size_t segment) const {
  // splitmix-style hash: replicas of (session, segment) agree everywhere.
  std::uint64_t x = config_.seed * 0x9e3779b97f4a7c15ULL +
                    session * 0x100000001b3ULL + segment + 1;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x | 1;
}

std::size_t CodingService::blocks_for(ServiceMode mode) const {
  const std::size_t n = config_.fleet.params.n;
  return mode == ServiceMode::kThinned ? n + kBlocksExtraThinned
                                       : n + config_.blocks_extra;
}

ServiceReport run_with_recovery(const ServiceConfig& config,
                                simgpu::Profiler* profiler) {
  auto service = std::make_unique<CodingService>(config, profiler);
  ServiceReport report = service->run();
  std::vector<FleetScheduler::RampEvent> ramp_events = report.ramp_events;
  std::uint64_t ramp_collapses = report.ramp_collapses;
  std::size_t dropped_bytes = report.journal_dropped_bytes;
  std::size_t next_recover = 0;
  while (report.crashed) {
    // Pair the crash with the next scripted recover at or after it; with
    // none scripted, recover at the last journaled event (immediately).
    std::optional<double> recover_at;
    for (; next_recover < config.plan.recovers.size(); ++next_recover) {
      if (config.plan.recovers[next_recover] >= report.crash_at_s) {
        recover_at = config.plan.recovers[next_recover];
        ++next_recover;
        break;
      }
    }
    // Copy the journal: the "dead" process's memory is gone, only its
    // journal bytes survive — same contract as the on-disk flow.
    const std::vector<std::uint8_t> journal = service->journal_bytes();
    auto next =
        CodingService::recover(config, journal, recover_at, profiler);
    EXTNC_CHECK(next != nullptr);
    service = std::move(next);
    report = service->run();
    ramp_events.insert(ramp_events.end(), report.ramp_events.begin(),
                       report.ramp_events.end());
    ramp_collapses += report.ramp_collapses;
    dropped_bytes += report.journal_dropped_bytes;
  }
  report.ramp_events = std::move(ramp_events);
  report.ramp_collapses = ramp_collapses;
  report.journal_dropped_bytes = dropped_bytes;
  return report;
}

}  // namespace extnc::serve
