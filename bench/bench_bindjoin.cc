// Batched + parallel bind-join probes (docs/PERFORMANCE.md): what do
// IN-set probe batches and simulated-concurrent waves buy over the
// original one-equality-probe-per-key loop? Two benches over a seeded
// image-library federation:
//
//   probes     200-key bind join, serial loop vs batched waves -- the
//              answers must match byte-for-byte while the charged
//              latency drops max-not-sum per wave
//   objective  kTotalTime vs kResponseTime over a 3-relation chain:
//              the enumerator keeps the bind join where serial cost is
//              what counts and overlaps submits where it is not
//
// Everything runs on the simulated clock with seeded RNGs, so every
// number (and BENCH_bindjoin.json) is byte-stable across reruns.

#include <cstdio>
#include <memory>
#include <string>

#include "mediator/mediator.h"
#include "optimizer/optimizer.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

constexpr int kImages = 20000;
constexpr int kMeta = 2000;
constexpr int kRuns = 10;

std::unique_ptr<wrapper::Wrapper> MakeImageSource(int rows,
                                                  double latency_ms) {
  auto src = sources::MakeObjectDbSource("img");
  storage::Table* images = src->CreateTable(CollectionSchema(
      "Image", {{"id", AttrType::kLong}, {"feature", AttrType::kLong}}));
  for (int i = 0; i < rows; ++i) {
    Status s =
        images->Insert({Value(int64_t{i}), Value(int64_t{(i * 31) % 1000})});
    DISCO_CHECK(s.ok()) << s.ToString();
  }
  DISCO_CHECK(images->CreateIndex("id").ok());
  auto inner = std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
  wrapper::FaultProfile profile;
  profile.added_latency_ms = latency_ms;
  return std::make_unique<wrapper::FaultInjectingWrapper>(std::move(inner),
                                                          profile);
}

std::unique_ptr<wrapper::Wrapper> MakeMetaSource(int rows) {
  auto src = sources::MakeRelationalSource("meta");
  storage::Table* docs = src->CreateTable(CollectionSchema(
      "Meta", {{"photoId", AttrType::kLong}, {"year", AttrType::kLong}}));
  for (int i = 0; i < rows; ++i) {
    Status s = docs->Insert(
        {Value(int64_t{i * 10}), Value(int64_t{1990 + i % 10})});
    DISCO_CHECK(s.ok()) << s.ToString();
  }
  return std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
}

/// The probe workload: 200 metadata rows of year 1999 (200 distinct
/// keys) bind-joined into the indexed Image collection, every probe
/// paying 100 ms of injected source latency.
std::unique_ptr<algebra::Operator> ProbePlan() {
  using algebra::CmpOp;
  using algebra::Scan;
  using algebra::Select;
  using algebra::Submit;
  return algebra::BindJoin(
      Submit("meta",
             Select(Scan("Meta"), "year", CmpOp::kEq, Value(int64_t{1999}))),
      "img", "Image", algebra::JoinPredicate{"photoId", "id"});
}

std::unique_ptr<mediator::Mediator> MakeFederation(
    const mediator::FederationOptions& fed) {
  mediator::MediatorOptions options;
  options.record_history = false;
  options.fault_tolerance.federation = fed;
  auto med = std::make_unique<mediator::Mediator>(options);
  DISCO_CHECK(med->RegisterWrapper(MakeImageSource(kImages, 100)).ok());
  DISCO_CHECK(med->RegisterWrapper(MakeMetaSource(kMeta)).ok());
  return med;
}

/// One run rendered to bytes: tuples, warnings, clock.
struct RunSnapshot {
  std::string tuples;
  std::string warnings;
  double measured_ms = 0;
};

RunSnapshot Snapshot(mediator::Mediator* med) {
  auto plan = ProbePlan();
  auto r = med->Execute(*plan);
  DISCO_CHECK(r.ok()) << r.status().ToString();
  RunSnapshot snap;
  for (const storage::Tuple& t : r->tuples) {
    for (const Value& v : t) snap.tuples += v.ToString() + ",";
  }
  for (const mediator::ExecWarning& w : r->warnings) {
    snap.warnings += w.ToString() + "\n";
  }
  snap.measured_ms = r->measured_ms;
  return snap;
}

struct ProbeNumbers {
  double serial_ms = 0;   ///< mean simulated ms/query, per-key loop
  double batched_ms = 0;  ///< mean simulated ms/query, batched waves
  double speedup = 0;
  long long probes_serial = 0;
  long long probes_batched = 0;
  long long waves = 0;
};

ProbeNumbers RunProbes() {
  ProbeNumbers out;
  std::string baseline_tuples, baseline_warnings;
  for (int batched : {0, 1}) {
    mediator::FederationOptions fed;
    if (batched) {
      fed.bind_batch_size = 16;
      fed.bind_parallelism = 8;
    }
    auto med = MakeFederation(fed);
    double total = 0;
    RunSnapshot snap;
    for (int run = 0; run < kRuns; ++run) {
      snap = Snapshot(med.get());
      total += snap.measured_ms;
    }
    const long long probes =
        med->metrics()->counter("disco.exec.bindjoin.probes")->value() /
        kRuns;
    if (batched) {
      DISCO_CHECK(snap.tuples == baseline_tuples)
          << "batched probes changed the answer";
      DISCO_CHECK(snap.warnings == baseline_warnings)
          << "batched probes changed the degradations";
      out.batched_ms = total / kRuns;
      out.probes_batched = probes;
      out.waves =
          med->metrics()->counter("disco.exec.bindjoin.waves")->value() /
          kRuns;
    } else {
      baseline_tuples = snap.tuples;
      baseline_warnings = snap.warnings;
      out.serial_ms = total / kRuns;
      out.probes_serial = probes;
    }
  }
  out.speedup = out.batched_ms > 0 ? out.serial_ms / out.batched_ms : 0;
  std::printf("%-10s %14.1f %14.1f %9.2fx   (%lld -> %lld probes, "
              "%lld waves)\n",
              "probes", out.serial_ms, out.batched_ms, out.speedup,
              out.probes_serial, out.probes_batched, out.waves);
  DISCO_CHECK(out.speedup >= 2.0)
      << "batched bind join below the 2x bar: " << out.speedup;
  return out;
}

struct ObjectiveNumbers {
  double total_ms = 0;     ///< winner's price under kTotalTime
  double response_ms = 0;  ///< winner's price under kResponseTime
  double diverged = 0;     ///< 1.0 = the two objectives picked
                           ///< different plans
  long long plans_pruned = 0;
  std::string total_plan;
  std::string response_plan;
};

ObjectiveNumbers RunObjective() {
  // The 3-relation chain Tag - Meta - Image, sized so the batched bind
  // join into Image wins on serial cost while overlapped submits win on
  // response time (same shape as BindJoinBatchTest).
  mediator::MediatorOptions options;
  options.record_history = false;
  options.fault_tolerance.federation.bind_batch_size = 4;
  options.fault_tolerance.federation.bind_parallelism = 2;
  mediator::Mediator med(options);
  DISCO_CHECK(med.RegisterWrapper(MakeImageSource(220, 0)).ok());
  DISCO_CHECK(med.RegisterWrapper(MakeMetaSource(400)).ok());
  auto tag = sources::MakeRelationalSource("tag");
  storage::Table* tags = tag->CreateTable(CollectionSchema(
      "Tag", {{"photoId", AttrType::kLong}, {"label", AttrType::kLong}}));
  for (int i = 0; i < 40; ++i) {
    DISCO_CHECK(
        tags->Insert({Value(int64_t{i * 10}), Value(int64_t{i % 5})}).ok());
  }
  DISCO_CHECK(med.RegisterWrapper(
                     std::make_unique<wrapper::SimulatedWrapper>(
                         std::move(tag),
                         wrapper::SimulatedWrapper::Options{}))
                  .ok());

  auto bound = med.Analyze(
      "SELECT label, feature FROM Tag, Meta, Image "
      "WHERE Tag.photoId = Meta.photoId AND Meta.photoId = Image.id "
      "AND year = 1999");
  DISCO_CHECK(bound.ok()) << bound.status().ToString();
  costmodel::CostEstimator est(med.registry(), &med.catalog());
  optimizer::Optimizer opt(&est, &med.capabilities());

  optimizer::OptimizerOptions total, response;
  total.objective = optimizer::Objective::kTotalTime;
  response.objective = optimizer::Objective::kResponseTime;
  auto p_total = opt.Optimize(*bound, total);
  auto p_response = opt.Optimize(*bound, response);
  DISCO_CHECK(p_total.ok()) << p_total.status().ToString();
  DISCO_CHECK(p_response.ok()) << p_response.status().ToString();

  ObjectiveNumbers out;
  out.total_ms = p_total->estimated_ms;
  out.response_ms = p_response->estimated_ms;
  out.total_plan = p_total->plan->ToString();
  out.response_plan = p_response->plan->ToString();
  out.diverged = out.total_plan != out.response_plan ? 1.0 : 0.0;
  out.plans_pruned = p_response->stats.plans_pruned;
  std::printf("%-10s %14.1f %14.1f %9s   (%lld plans pruned)\n", "objective",
              out.total_ms, out.response_ms,
              out.diverged == 1.0 ? "diverged" : "same", out.plans_pruned);
  std::printf("#   total:    %s\n#   response: %s\n", out.total_plan.c_str(),
              out.response_plan.c_str());
  DISCO_CHECK(out.diverged == 1.0)
      << "objectives agreed; the costing is not response-time-aware";
  DISCO_CHECK(out.total_plan.find("bindjoin") != std::string::npos)
      << out.total_plan;
  DISCO_CHECK(out.plans_pruned > 0) << "pruning was inactive";
  return out;
}

void WriteJson(const ProbeNumbers& probes,
               const ObjectiveNumbers& objective) {
  std::FILE* f = std::fopen("BENCH_bindjoin.json", "w");
  DISCO_CHECK(f != nullptr) << "cannot write BENCH_bindjoin.json";
  std::fprintf(f,
               "{\"bindjoin\":{\"serial_ms\":%.3f,\"batched_ms\":%.3f,"
               "\"speedup\":%.3f,\"probes_serial\":%lld,"
               "\"probes_batched\":%lld,\"waves\":%lld},",
               probes.serial_ms, probes.batched_ms, probes.speedup,
               probes.probes_serial, probes.probes_batched, probes.waves);
  std::fprintf(f,
               "\"objective\":{\"total_ms\":%.3f,\"response_ms\":%.3f,"
               "\"diverged\":%.1f,\"plans_pruned\":%lld}}\n",
               objective.total_ms, objective.response_ms, objective.diverged,
               objective.plans_pruned);
  std::fclose(f);
}

int Run() {
  std::printf("# batched bind-join probes: %d images, %d meta rows, "
              "%d runs/arm (simulated ms)\n",
              kImages, kMeta, kRuns);
  std::printf("%-10s %14s %14s %9s\n", "section", "baseline_ms",
              "batched_ms", "delta");
  ProbeNumbers probes = RunProbes();
  ObjectiveNumbers objective = RunObjective();
  WriteJson(probes, objective);
  std::printf("# wrote BENCH_bindjoin.json\n");

  // Machine-readable block for CI trending; fully seeded and simulated,
  // so byte-stable across reruns.
  std::printf("\n# BENCH_SUMMARY_BEGIN\n"
              "{\n"
              "  \"bench\": \"bindjoin\",\n"
              "  \"probe_speedup\": %.3f,\n"
              "  \"objective_diverged\": %.1f\n"
              "}\n"
              "# BENCH_SUMMARY_END\n",
              probes.speedup, objective.diverged);
  return 0;
}

}  // namespace
}  // namespace disco

int main() { return disco::Run(); }
