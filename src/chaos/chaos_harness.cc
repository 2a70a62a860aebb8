#include "chaos/chaos_harness.h"

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "mediator/mediator.h"
#include "wrapper/fault_injection.h"
#include "wrapper/fault_schedule.h"

namespace disco {
namespace chaos {

namespace {

constexpr int kSources = 4;
/// Source i owns keys [i * kKeyStride, i * kKeyStride + rows): a missing
/// tuple's key names the source that lost it, which is what makes the
/// attribution contract checkable.
constexpr int64_t kKeyStride = 1000;

std::string SourceName(int i) { return StringPrintf("s%d", i); }
std::string CollectionName(int i) { return StringPrintf("C%d", i); }

std::unique_ptr<algebra::Operator> FourWayUnion() {
  using algebra::Scan;
  using algebra::Submit;
  return algebra::Union(
      algebra::Union(Submit("s0", Scan("C0")), Submit("s1", Scan("C1"))),
      algebra::Union(Submit("s2", Scan("C2")), Submit("s3", Scan("C3"))));
}

/// Declares the scenario's domains and windows on `schedule`. Returns
/// false for unknown scenario names. `seed` nudges window starts and
/// flap periods so the sweep covers different clock alignments, not
/// just different corruption streams.
bool ConfigureScenario(const std::string& scenario, uint64_t seed,
                       wrapper::FaultSchedule* schedule) {
  schedule->DefineDomain("rack", {"s0", "s1"});
  schedule->DefineDomain("flappy", {"s1"});
  schedule->DefineDomain("wan", {"s2"});
  schedule->DefineDomain("liar", {"s3"});
  schedule->DefineDomain("solo", {"s0"});
  const double off = 20.0 * static_cast<double>(seed % 5);

  auto malform = [&](uint32_t modes, double probability) {
    wrapper::FaultWindow w;
    w.domain = "liar";
    w.start_ms = 0;
    w.end_ms = 1e9;
    w.effect = wrapper::FaultEffect::kMalform;
    w.malform_modes = modes;
    w.malform_row_probability = probability;
    schedule->AddWindow(w);
  };

  if (scenario == "outage-domain") {
    wrapper::FaultWindow w;
    w.domain = "rack";
    w.start_ms = off;
    w.end_ms = off + 260;
    w.effect = wrapper::FaultEffect::kOutage;
    w.message = "rack power loss";
    schedule->AddWindow(w);
  } else if (scenario == "flap") {
    wrapper::FaultWindow w;
    w.domain = "flappy";
    w.start_ms = 0;
    w.end_ms = 1e9;
    w.effect = wrapper::FaultEffect::kFlap;
    w.flap_period_ms = 90 + 10 * static_cast<double>(seed % 4);
    w.flap_down_fraction = 0.5;
    w.message = "flapping uplink";
    schedule->AddWindow(w);
  } else if (scenario == "latency-storm") {
    wrapper::FaultWindow w;
    w.domain = "wan";
    w.start_ms = off;
    w.end_ms = 1e9;
    w.effect = wrapper::FaultEffect::kLatencyStorm;
    w.storm_factor = 8;
    w.storm_added_ms = 40;
    schedule->AddWindow(w);
  } else if (scenario == "malformed-arity") {
    malform(wrapper::kMalformArity, 0.6);
  } else if (scenario == "malformed-types") {
    malform(wrapper::kMalformTypes, 0.6);
  } else if (scenario == "malformed-nonfinite") {
    malform(wrapper::kMalformNonFinite, 0.6);
  } else if (scenario == "truncated-stream") {
    malform(wrapper::kMalformTruncate, 1.0);
  } else if (scenario == "mixed") {
    wrapper::FaultWindow outage;
    outage.domain = "solo";
    outage.start_ms = off;
    outage.end_ms = off + 180;
    outage.effect = wrapper::FaultEffect::kOutage;
    outage.message = "switch reboot";
    schedule->AddWindow(outage);
    wrapper::FaultWindow storm;
    storm.domain = "wan";
    storm.start_ms = 0;
    storm.end_ms = 1e9;
    storm.effect = wrapper::FaultEffect::kLatencyStorm;
    storm.storm_factor = 4;
    storm.storm_added_ms = 25;
    schedule->AddWindow(storm);
    malform(wrapper::kMalformAll, 0.4);
  } else {
    return false;
  }
  return true;
}

struct Federation {
  std::unique_ptr<mediator::Mediator> med;
  /// Per-source tap for call counting, registration order.
  std::vector<wrapper::ScheduledFaultWrapper*> taps;
};

Federation MakeFederation(const wrapper::FaultSchedule* schedule,
                          const ChaosOptions& options) {
  mediator::MediatorOptions mo;
  mo.fault_tolerance.allow_partial = true;
  mo.fault_tolerance.retry = mediator::RetryPolicy::Standard(3);
  mo.fault_tolerance.federation.scatter = true;
  mo.breaker.failure_threshold = 3;
  mo.breaker.cooldown_ms = 80;
  mo.record_history = false;
  Federation out;
  out.med = std::make_unique<mediator::Mediator>(mo);
  for (int i = 0; i < kSources; ++i) {
    auto src = sources::MakeRelationalSource(SourceName(i));
    storage::Table* t = src->CreateTable(
        CollectionSchema(CollectionName(i), {{"k", AttrType::kLong}}));
    for (int j = 0; j < options.rows_per_source; ++j) {
      Status s = t->Insert({Value(int64_t{i} * kKeyStride + j)});
      DISCO_CHECK(s.ok()) << s.ToString();
    }
    auto sim = std::make_unique<wrapper::SimulatedWrapper>(
        std::move(src), wrapper::SimulatedWrapper::Options{});
    // Base latency under the scheduled faults: storms have something to
    // multiply and queries advance the clock through fault windows.
    wrapper::FaultProfile base;
    base.added_latency_ms = 20;
    auto noisy = std::make_unique<wrapper::FaultInjectingWrapper>(
        std::move(sim), base);
    auto tapped = std::make_unique<wrapper::ScheduledFaultWrapper>(
        std::move(noisy), schedule);
    out.taps.push_back(tapped.get());
    Status s = out.med->RegisterWrapper(std::move(tapped));
    DISCO_CHECK(s.ok()) << s.ToString();
  }
  return out;
}

/// What one arm observed for one query.
struct QueryObs {
  bool ok = false;
  std::string error;
  std::map<int64_t, int> keys;     ///< key -> multiplicity
  std::set<std::string> warned;    ///< sources named by warnings
  std::vector<std::string> warning_text;
};

struct ArmResult {
  std::string digest;  ///< full observable behaviour, byte-comparable
  std::vector<QueryObs> queries;
  std::vector<std::string> breaker_violations;
  std::vector<std::string> open_call_violations;
  int queries_ok = 0;
  int queries_failed = 0;
  int64_t returned_tuples = 0;
  int64_t quarantined_rows = 0;
  int64_t warning_count = 0;
  bool known_scenario = true;
};

ArmResult RunArm(const std::string& scenario, uint64_t seed,
                 bool faults_enabled, const ChaosOptions& options) {
  ArmResult out;
  wrapper::FaultSchedule schedule(0xC4A05ULL ^
                                  (seed * 0x9E3779B97F4A7C15ULL));
  if (!ConfigureScenario(scenario, seed, &schedule)) {
    out.known_scenario = false;
    return out;
  }
  schedule.set_enabled(faults_enabled);
  Federation fed = MakeFederation(&schedule, options);
  auto plan = FourWayUnion();

  std::map<std::string, mediator::SourceHealth> pre;
  std::map<std::string, int64_t> pre_calls;
  for (int q = 0; q < options.queries_per_run; ++q) {
    // Fault state is constant within a query: the schedule clock moves
    // only here, at the query boundary.
    schedule.AdvanceTo(fed.med->sim_now_ms());
    for (int i = 0; i < kSources; ++i) {
      const std::string name = SourceName(i);
      pre[name] = fed.med->health()->Health(name);
      pre_calls[name] = fed.taps[i]->calls();
    }

    auto r = fed.med->Execute(*plan);

    QueryObs obs;
    obs.ok = r.ok();
    out.digest += StringPrintf("q%d ok=%d", q, obs.ok ? 1 : 0);
    if (r.ok()) {
      ++out.queries_ok;
      out.digest += StringPrintf(" ms=%.3f t:", r->measured_ms);
      for (const storage::Tuple& t : r->tuples) {
        for (const Value& v : t) out.digest += v.ToString() + ",";
        out.digest += ";";
        ++out.returned_tuples;
        if (!t.empty() && t[0].is_int64()) ++obs.keys[t[0].AsInt64()];
      }
      out.digest += " w:";
      for (const mediator::ExecWarning& w : r->warnings) {
        if (!w.source.empty()) obs.warned.insert(w.source);
        obs.warning_text.push_back(w.ToString());
        out.digest += w.ToString() + "|";
      }
      out.warning_count += static_cast<int64_t>(r->warnings.size());
      out.quarantined_rows += r->guard.rows_quarantined;
      out.digest += StringPrintf(
          " g:%lld,%lld,%lld,%lld",
          static_cast<long long>(r->guard.batches_checked),
          static_cast<long long>(r->guard.malformed_batches),
          static_cast<long long>(r->guard.rows_quarantined),
          static_cast<long long>(r->guard.truncated_streams));
    } else {
      ++out.queries_failed;
      obs.error = r.status().ToString();
      out.digest += " err=" + obs.error;
    }
    out.digest += "\n";

    // Breaker contracts against the shared registry.
    for (int i = 0; i < kSources; ++i) {
      const std::string name = SourceName(i);
      const mediator::SourceHealth h = fed.med->health()->Health(name);
      const mediator::SourceHealth& p = pre[name];
      if (h.total_successes < p.total_successes ||
          h.total_failures < p.total_failures ||
          h.rejected_submits < p.rejected_submits ||
          h.malformed_batches < p.malformed_batches ||
          h.quarantined_rows < p.quarantined_rows) {
        out.breaker_violations.push_back(StringPrintf(
            "q%d %s: breaker counter went backwards", q, name.c_str()));
      }
      // Same open episode before and after (no transition, no recorded
      // outcome) means no submit was legally admitted in between -- the
      // wrapper must not have been called at all.
      const int64_t calls_delta = fed.taps[i]->calls() - pre_calls[name];
      if (p.state == mediator::BreakerState::kOpen &&
          h.state == mediator::BreakerState::kOpen &&
          h.opened_at_ms == p.opened_at_ms &&
          h.total_successes == p.total_successes &&
          h.total_failures == p.total_failures && calls_delta != 0) {
        out.open_call_violations.push_back(StringPrintf(
            "q%d %s: %lld call(s) reached a source whose breaker stayed "
            "open", q, name.c_str(), static_cast<long long>(calls_delta)));
      }
    }
    out.queries.push_back(std::move(obs));
  }

  // Final breaker counters belong to the digest: the lockstep replay of
  // health events must leave the shared registry byte-identical too.
  const double now = fed.med->sim_now_ms();
  for (int i = 0; i < kSources; ++i) {
    const std::string name = SourceName(i);
    const mediator::SourceHealth h = fed.med->health()->Health(name);
    out.digest += StringPrintf(
        "%s %s ok=%lld fail=%lld rej=%lld probes=%d cooldown=%.3f "
        "malformed=%lld quarantined=%lld lying=%d\n",
        name.c_str(),
        mediator::BreakerStateToString(
            fed.med->health()->StateAt(name, now)),
        static_cast<long long>(h.total_successes),
        static_cast<long long>(h.total_failures),
        static_cast<long long>(h.rejected_submits),
        h.consecutive_probe_failures,
        fed.med->health()->EffectiveCooldownMs(name),
        static_cast<long long>(h.malformed_batches),
        static_cast<long long>(h.quarantined_rows), h.lying ? 1 : 0);
  }
  return out;
}

}  // namespace

std::vector<std::string> AllChaosScenarios() {
  return {"outage-domain",     "flap",
          "latency-storm",     "malformed-arity",
          "malformed-types",   "malformed-nonfinite",
          "truncated-stream",  "mixed"};
}

ChaosRunResult RunChaosScenario(const std::string& scenario, uint64_t seed,
                                const ChaosOptions& options) {
  ChaosRunResult run;
  run.scenario = scenario;
  run.seed = seed;

  ArmResult oracle = RunArm(scenario, seed, /*faults_enabled=*/false,
                            options);
  if (!oracle.known_scenario) {
    run.violations.push_back("unknown scenario '" + scenario + "'");
    return run;
  }
  ArmResult faults = RunArm(scenario, seed, true, options);
  ArmResult replay = RunArm(scenario, seed, true, options);

  run.replay_identical = replay.digest == faults.digest;
  if (!run.replay_identical) {
    run.violations.push_back("replay arm digest diverged");
  }

  run.queries_ok = faults.queries_ok;
  run.queries_failed = faults.queries_failed;
  run.returned_tuples = faults.returned_tuples;
  run.quarantined_rows = faults.quarantined_rows;
  run.warning_count = faults.warning_count;

  // Soundness + attribution against the oracle, query by query.
  for (int q = 0; q < options.queries_per_run; ++q) {
    const QueryObs& truth = oracle.queries[q];
    const QueryObs& seen = faults.queries[q];
    if (!truth.ok) {
      run.violations.push_back(
          StringPrintf("q%d: oracle arm itself failed: %s", q,
                       truth.error.c_str()));
      continue;
    }
    for (const auto& [key, count] : truth.keys) run.oracle_tuples += count;
    if (!seen.ok) continue;  // an explicit error is loud, not silent loss
    for (const auto& [key, count] : seen.keys) {
      auto it = truth.keys.find(key);
      const int expected = it == truth.keys.end() ? 0 : it->second;
      if (count > expected) {
        run.unsound_tuples += count - expected;
        run.violations.push_back(StringPrintf(
            "q%d: tuple key=%lld returned %dx but only %dx in the oracle",
            q, static_cast<long long>(key), count, expected));
      }
    }
    for (const auto& [key, count] : truth.keys) {
      auto it = seen.keys.find(key);
      const int got = it == seen.keys.end() ? 0 : it->second;
      if (got >= count) continue;
      run.missing_tuples += count - got;
      const std::string source =
          SourceName(static_cast<int>(key / kKeyStride));
      bool warned = seen.warned.count(source) > 0;
      for (size_t w = 0; !warned && w < seen.warning_text.size(); ++w) {
        warned = seen.warning_text[w].find(source) != std::string::npos;
      }
      if (!warned) {
        run.violations.push_back(StringPrintf(
            "q%d: tuple key=%lld missing without a warning naming %s", q,
            static_cast<long long>(key), source.c_str()));
      }
    }
  }

  run.sound = run.unsound_tuples == 0;
  bool attributed = true;
  for (const std::string& v : run.violations) {
    if (v.find("missing without a warning") != std::string::npos) {
      attributed = false;
    }
  }
  run.attributed = attributed;
  run.breaker_ok = faults.breaker_violations.empty();
  run.no_open_calls = faults.open_call_violations.empty();
  for (std::string& v : faults.breaker_violations) {
    run.violations.push_back(std::move(v));
  }
  for (std::string& v : faults.open_call_violations) {
    run.violations.push_back(std::move(v));
  }
  run.availability =
      run.oracle_tuples > 0
          ? static_cast<double>(run.returned_tuples) /
                static_cast<double>(run.oracle_tuples)
          : 1.0;
  return run;
}

ChaosSweepResult RunChaosSweep(const ChaosOptions& options) {
  ChaosSweepResult sweep;
  std::vector<std::string> scenarios =
      options.scenarios.empty() ? AllChaosScenarios() : options.scenarios;
  double availability_sum = 0;
  int sound_runs = 0;
  for (const std::string& scenario : scenarios) {
    for (int s = 0; s < options.seeds; ++s) {
      ChaosRunResult run = RunChaosScenario(
          scenario, options.seed_base + static_cast<uint64_t>(s), options);
      ++sweep.runs;
      if (run.passed()) ++sweep.passed;
      if (run.sound) ++sound_runs;
      availability_sum += run.availability;
      sweep.quarantined_rows += run.quarantined_rows;
      sweep.results.push_back(std::move(run));
    }
  }
  sweep.soundness =
      sweep.runs > 0 ? static_cast<double>(sound_runs) / sweep.runs : 1.0;
  sweep.availability = sweep.runs > 0 ? availability_sum / sweep.runs : 1.0;
  return sweep;
}

std::string ChaosSweepResult::ToJson() const {
  std::string out = StringPrintf(
      "{\"chaos\":{\"runs\":%d,\"passed\":%d,\"soundness\":%.4f,"
      "\"availability\":%.4f,\"quarantined_rows\":%lld},",
      runs, passed, soundness, availability,
      static_cast<long long>(quarantined_rows));
  // Per-scenario aggregates, first-appearance order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const ChaosRunResult*>> grouped;
  for (const ChaosRunResult& r : results) {
    if (grouped.find(r.scenario) == grouped.end()) order.push_back(r.scenario);
    grouped[r.scenario].push_back(&r);
  }
  out += "\"scenarios\":{";
  for (size_t i = 0; i < order.size(); ++i) {
    const std::vector<const ChaosRunResult*>& group = grouped[order[i]];
    int group_passed = 0;
    double group_avail = 0;
    int64_t group_missing = 0, group_quarantined = 0;
    for (const ChaosRunResult* r : group) {
      if (r->passed()) ++group_passed;
      group_avail += r->availability;
      group_missing += r->missing_tuples;
      group_quarantined += r->quarantined_rows;
    }
    out += StringPrintf(
        "%s\"%s\":{\"runs\":%zu,\"passed\":%d,\"availability\":%.4f,"
        "\"missing_tuples\":%lld,\"quarantined_rows\":%lld}",
        i == 0 ? "" : ",", JsonEscape(order[i]).c_str(), group.size(),
        group_passed, group_avail / static_cast<double>(group.size()),
        static_cast<long long>(group_missing),
        static_cast<long long>(group_quarantined));
  }
  out += "}}";
  return out;
}

}  // namespace chaos
}  // namespace disco
