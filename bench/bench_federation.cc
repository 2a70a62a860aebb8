// Deadline-aware scatter-gather federation (docs/ROBUSTNESS.md): what
// does concurrency buy on the simulated clock, and what do hedging and
// deadlines cost/save? Four benches over seeded federations:
//
//   scatter    4-source union, serial vs scatter -- answers must match
//              byte-for-byte while the charged latency drops max-not-sum
//   hedge      slow primary with a DeclareEquivalent replica, hedging
//              off vs on
//   deadline   a straggler under a per-query deadline: partial answer
//              plus warning instead of waiting
//   objective  kTotalTime vs kResponseTime price of the same plan
//
// Everything runs on the simulated clock with seeded RNGs, so every
// number (and BENCH_federation.json) is byte-stable across reruns.

#include <cstdio>
#include <memory>
#include <string>

#include "mediator/mediator.h"
#include "optimizer/join_enum.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

constexpr int kRows = 200;
constexpr int kRuns = 20;

std::unique_ptr<wrapper::FaultInjectingWrapper> MakeSource(
    const std::string& source, const std::string& collection,
    wrapper::FaultProfile profile) {
  auto src = sources::MakeRelationalSource(source);
  storage::Table* t = src->CreateTable(
      CollectionSchema(collection, {{"k", AttrType::kLong}}));
  for (int i = 0; i < kRows; ++i) {
    Status s = t->Insert({Value(int64_t{i})});
    DISCO_CHECK(s.ok()) << s.ToString();
  }
  auto inner = std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
  return std::make_unique<wrapper::FaultInjectingWrapper>(std::move(inner),
                                                          profile);
}

/// Four sources behind 100 ms of injected latency; `a` is flaky enough
/// to exercise retries inside the scatter phase.
std::unique_ptr<mediator::Mediator> MakeFourSourceFederation(
    const mediator::FederationOptions& fed) {
  mediator::MediatorOptions options;
  options.fault_tolerance.allow_partial = true;
  options.fault_tolerance.retry = mediator::RetryPolicy::Standard(3);
  options.fault_tolerance.federation = fed;
  options.record_history = false;
  auto med = std::make_unique<mediator::Mediator>(options);
  const char* names[] = {"a", "b", "c", "d"};
  const char* colls[] = {"A", "B", "C", "D"};
  for (int i = 0; i < 4; ++i) {
    wrapper::FaultProfile p;
    if (i == 0) p = wrapper::FaultProfile::Flaky(0.2, /*seed=*/18);
    p.added_latency_ms = 100;
    Status s = med->RegisterWrapper(MakeSource(names[i], colls[i], p));
    DISCO_CHECK(s.ok()) << s.ToString();
  }
  return med;
}

std::unique_ptr<algebra::Operator> FourWayUnion() {
  using algebra::Scan;
  using algebra::Submit;
  return algebra::Union(
      algebra::Union(Submit("a", Scan("A")), Submit("b", Scan("B"))),
      algebra::Union(Submit("c", Scan("C")), Submit("d", Scan("D"))));
}

struct ScatterNumbers {
  double serial_ms = 0;   ///< mean simulated ms/query, serial submits
  double scatter_ms = 0;  ///< mean simulated ms/query, 4-way scatter
  double speedup = 0;
};

ScatterNumbers RunScatter() {
  ScatterNumbers out;
  std::string baseline_tuples;
  for (int scatter : {0, 1}) {
    mediator::FederationOptions fed;
    fed.scatter = scatter != 0;
    auto med = MakeFourSourceFederation(fed);
    auto plan = FourWayUnion();
    double total = 0;
    std::string tuples;
    for (int run = 0; run < kRuns; ++run) {
      auto r = med->Execute(*plan);
      DISCO_CHECK(r.ok()) << r.status().ToString();
      total += r->measured_ms;
      if (run == 0) {
        for (const storage::Tuple& t : r->tuples) {
          for (const Value& v : t) tuples += v.ToString() + ",";
        }
      }
    }
    if (scatter) {
      DISCO_CHECK(tuples == baseline_tuples)
          << "scatter changed the answer";
      out.scatter_ms = total / kRuns;
    } else {
      baseline_tuples = tuples;
      out.serial_ms = total / kRuns;
    }
  }
  out.speedup = out.scatter_ms > 0 ? out.serial_ms / out.scatter_ms : 0;
  std::printf("%-10s %14.1f %14.1f %9.2fx\n", "scatter", out.serial_ms,
              out.scatter_ms, out.speedup);
  DISCO_CHECK(out.speedup >= 2.0)
      << "4-source scatter below the 2x bar: " << out.speedup;
  return out;
}

struct HedgeNumbers {
  double unhedged_ms = 0;  ///< slow primary awaited
  double hedged_ms = 0;    ///< replica raced and won
  double speedup = 0;
  long long hedges_won = 0;
};

HedgeNumbers RunHedge() {
  HedgeNumbers out;
  for (int hedge : {0, 1}) {
    mediator::MediatorOptions options;
    options.fault_tolerance.federation.hedge = hedge != 0;
    // Activate the scatter path in both arms so only hedging differs.
    options.fault_tolerance.federation.deadline_ms = 1e9;
    options.record_history = false;
    mediator::Mediator med(options);
    auto east = MakeSource("east", "E", wrapper::FaultProfile{});
    wrapper::FaultInjectingWrapper* east_p = east.get();
    DISCO_CHECK(med.RegisterWrapper(std::move(east)).ok());
    DISCO_CHECK(
        med.RegisterWrapper(MakeSource("west", "W", wrapper::FaultProfile{}))
            .ok());
    DISCO_CHECK(med.DeclareEquivalent("E", "W").ok());
    auto plan = algebra::Submit("east", algebra::Scan("E"));
    // Warm the latency profile on a healthy east...
    for (int i = 0; i < 8; ++i) {
      DISCO_CHECK(med.Execute(*plan).ok());
    }
    // ...then the primary develops a deterministic 2-6 s tail.
    east_p->SetProfile(wrapper::FaultProfile::Slow(4000));
    double total = 0;
    for (int run = 0; run < kRuns; ++run) {
      auto r = med.Execute(*plan);
      DISCO_CHECK(r.ok()) << r.status().ToString();
      DISCO_CHECK(r->tuples.size() == kRows);
      total += r->measured_ms;
    }
    if (hedge) {
      out.hedged_ms = total / kRuns;
      out.hedges_won = static_cast<long long>(
          med.metrics()->counter("disco.mediator.hedges.won")->value());
    } else {
      out.unhedged_ms = total / kRuns;
    }
  }
  out.speedup = out.hedged_ms > 0 ? out.unhedged_ms / out.hedged_ms : 0;
  std::printf("%-10s %14.1f %14.1f %9.2fx   (%lld hedges won)\n", "hedge",
              out.unhedged_ms, out.hedged_ms, out.speedup, out.hedges_won);
  DISCO_CHECK(out.hedged_ms < out.unhedged_ms)
      << "hedged run did not beat the slow replica";
  return out;
}

struct DeadlineNumbers {
  double deadline_ms = 1000;
  double no_deadline_ms = 0;  ///< mean ms/query waiting for the straggler
  double with_deadline_ms = 0;
  size_t rows_full = 0;
  size_t rows_partial = 0;
  long long expired_submits = 0;
};

DeadlineNumbers RunDeadline() {
  DeadlineNumbers out;
  for (int limited : {0, 1}) {
    mediator::MediatorOptions options;
    options.fault_tolerance.allow_partial = true;
    options.fault_tolerance.federation.scatter = true;
    options.fault_tolerance.federation.deadline_ms =
        limited ? out.deadline_ms : 1e9;
    options.record_history = false;
    mediator::Mediator med(options);
    DISCO_CHECK(
        med.RegisterWrapper(MakeSource("fast", "F", wrapper::FaultProfile{}))
            .ok());
    DISCO_CHECK(med.RegisterWrapper(
                       MakeSource("slow", "S",
                                  wrapper::FaultProfile::Slow(5000)))
                    .ok());
    auto plan = algebra::Union(algebra::Submit("fast", algebra::Scan("F")),
                               algebra::Submit("slow", algebra::Scan("S")));
    double total = 0;
    size_t rows = 0;
    for (int run = 0; run < kRuns; ++run) {
      auto r = med.Execute(*plan);
      DISCO_CHECK(r.ok()) << r.status().ToString();
      total += r->measured_ms;
      rows = r->tuples.size();
      if (limited) {
        DISCO_CHECK(!r->warnings.empty()) << "expiry must leave a warning";
      }
    }
    if (limited) {
      out.with_deadline_ms = total / kRuns;
      out.rows_partial = rows;
      out.expired_submits = static_cast<long long>(
          med.metrics()
              ->counter("disco.mediator.deadline.expired_submits")
              ->value());
    } else {
      out.no_deadline_ms = total / kRuns;
      out.rows_full = rows;
    }
  }
  std::printf("%-10s %14.1f %14.1f %9s   (%zu -> %zu rows, %lld expiries)\n",
              "deadline", out.no_deadline_ms, out.with_deadline_ms, "",
              out.rows_full, out.rows_partial, out.expired_submits);
  DISCO_CHECK(out.with_deadline_ms < out.no_deadline_ms);
  DISCO_CHECK(out.rows_partial == kRows && out.rows_full == 2 * kRows);
  return out;
}

struct ObjectiveNumbers {
  double total_time_ms = 0;     ///< serial-sum price of the 4-way union
  double response_time_ms = 0;  ///< max-not-sum price of the same plan
  double ratio = 0;
};

ObjectiveNumbers RunObjective() {
  ObjectiveNumbers out;
  auto med = MakeFourSourceFederation(mediator::FederationOptions{});
  auto plan = FourWayUnion();
  costmodel::EstimateOptions opts;
  auto est = med->estimator().Estimate(*plan, opts);
  DISCO_CHECK(est.ok()) << est.status().ToString();
  out.total_time_ms = est->root.total_time();
  auto response = optimizer::ResponseTimeCost(*plan, med->estimator(), opts);
  DISCO_CHECK(response.ok()) << response.status().ToString();
  out.response_time_ms = *response;
  out.ratio = out.response_time_ms > 0
                  ? out.total_time_ms / out.response_time_ms
                  : 0;
  std::printf("%-10s %14.1f %14.1f %9.2fx\n", "objective", out.total_time_ms,
              out.response_time_ms, out.ratio);
  DISCO_CHECK(out.response_time_ms < out.total_time_ms);
  return out;
}

void WriteJson(const ScatterNumbers& scatter, const HedgeNumbers& hedge,
               const DeadlineNumbers& deadline,
               const ObjectiveNumbers& objective) {
  std::FILE* f = std::fopen("BENCH_federation.json", "w");
  DISCO_CHECK(f != nullptr) << "cannot write BENCH_federation.json";
  std::fprintf(f,
               "{\"scatter\":{\"serial_ms\":%.3f,\"scatter_ms\":%.3f,"
               "\"speedup\":%.3f},",
               scatter.serial_ms, scatter.scatter_ms, scatter.speedup);
  std::fprintf(f,
               "\"hedge\":{\"unhedged_ms\":%.3f,\"hedged_ms\":%.3f,"
               "\"speedup\":%.3f,\"hedges_won\":%lld},",
               hedge.unhedged_ms, hedge.hedged_ms, hedge.speedup,
               hedge.hedges_won);
  std::fprintf(f,
               "\"deadline\":{\"deadline_ms\":%.1f,\"no_deadline_ms\":%.3f,"
               "\"with_deadline_ms\":%.3f,\"rows_full\":%zu,"
               "\"rows_partial\":%zu,\"expired_submits\":%lld},",
               deadline.deadline_ms, deadline.no_deadline_ms,
               deadline.with_deadline_ms, deadline.rows_full,
               deadline.rows_partial, deadline.expired_submits);
  std::fprintf(f,
               "\"objective\":{\"total_time_ms\":%.3f,"
               "\"response_time_ms\":%.3f,\"ratio\":%.3f}}\n",
               objective.total_time_ms, objective.response_time_ms,
               objective.ratio);
  std::fclose(f);
}

int Run() {
  std::printf("# scatter-gather federation: %d rows/source, %d runs/arm "
              "(simulated ms)\n", kRows, kRuns);
  std::printf("%-10s %14s %14s %9s\n", "section", "baseline_ms",
              "federated_ms", "delta");
  ScatterNumbers scatter = RunScatter();
  HedgeNumbers hedge = RunHedge();
  DeadlineNumbers deadline = RunDeadline();
  ObjectiveNumbers objective = RunObjective();
  WriteJson(scatter, hedge, deadline, objective);
  std::printf("# wrote BENCH_federation.json\n");

  // Machine-readable block for CI trending; fully seeded and simulated,
  // so byte-stable across reruns.
  std::printf("\n# BENCH_SUMMARY_BEGIN\n"
              "{\n"
              "  \"bench\": \"federation\",\n"
              "  \"scatter_speedup\": %.3f,\n"
              "  \"hedge_speedup\": %.3f,\n"
              "  \"deadline_saved_ms\": %.3f,\n"
              "  \"objective_ratio\": %.3f\n"
              "}\n"
              "# BENCH_SUMMARY_END\n",
              scatter.speedup, hedge.speedup,
              deadline.no_deadline_ms - deadline.with_deadline_ms,
              objective.ratio);
  return 0;
}

}  // namespace
}  // namespace disco

int main() { return disco::Run(); }
