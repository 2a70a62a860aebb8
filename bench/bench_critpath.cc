// Critical-path bench: three numbers behind docs/OBSERVABILITY.md's
// "Critical-path analysis" section.
//
//  whatif    how accurately the what-if engine predicts an actual
//            re-run: "source 'slow' 2x faster" predicted from a 4 s
//            tail vs. the measured time with the injected profile
//            rescaled to 2 s (the seeded draw scales linearly with the
//            mean, so the re-run IS the hypothetical);
//  blame     the dominant blame share the registry assigns on a
//            4-source scatter (how concentrated the bottleneck is);
//  overhead  host-side wall cost of the analysis itself (the simulated
//            clock is unaffected by construction).
//
// Results land in BENCH_critpath.json (cwd).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "mediator/mediator.h"
#include "wrapper/fault_injection.h"

namespace disco {
namespace {

constexpr int kOverheadRuns = 2000;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<wrapper::FaultInjectingWrapper> MakeSource(
    const std::string& source, const std::string& collection, int rows,
    wrapper::FaultProfile profile) {
  auto src = sources::MakeRelationalSource(source);
  storage::Table* t = src->CreateTable(
      CollectionSchema(collection, {{"k", AttrType::kLong}}));
  for (int i = 0; i < rows; ++i) {
    Status s = t->Insert({Value(int64_t{i})});
    DISCO_CHECK(s.ok()) << s.ToString();
  }
  auto inner = std::make_unique<wrapper::SimulatedWrapper>(
      std::move(src), wrapper::SimulatedWrapper::Options{});
  return std::make_unique<wrapper::FaultInjectingWrapper>(std::move(inner),
                                                          profile);
}

struct WhatIfNumbers {
  double baseline_ms = 0;   ///< measured with the 4000 ms slow source
  double predicted_ms = 0;  ///< what-if "source 'slow' 2x faster"
  double actual_ms = 0;     ///< measured re-run with Slow(2000)
  double error_pct = 0;
};

/// One fast + one Slow(mean_ms) source under a 2-lane scatter; returns
/// the measured time and (optionally) the query's critical path.
double RunFastSlow(double slow_mean_ms,
                   std::shared_ptr<const mediator::CriticalPath>* path) {
  mediator::MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1e9;
  mediator::Mediator med(opts);
  DISCO_CHECK(
      med.RegisterWrapper(MakeSource("fast", "F", 200,
                                     wrapper::FaultProfile{}))
          .ok());
  DISCO_CHECK(med.RegisterWrapper(
                     MakeSource("slow", "S", 200,
                                wrapper::FaultProfile::Slow(slow_mean_ms)))
                  .ok());
  auto plan = algebra::Union(algebra::Submit("fast", algebra::Scan("F")),
                             algebra::Submit("slow", algebra::Scan("S")));
  auto r = med.Execute(*plan);
  DISCO_CHECK(r.ok()) << r.status().ToString();
  if (path != nullptr) *path = r->critical_path;
  return r->measured_ms;
}

WhatIfNumbers RunWhatIf() {
  WhatIfNumbers out;
  std::shared_ptr<const mediator::CriticalPath> path;
  out.baseline_ms = RunFastSlow(4000, &path);
  DISCO_CHECK(path != nullptr);
  for (const mediator::WhatIfResult& w : path->what_ifs) {
    if (w.scenario.ToString() == "source 'slow' 2x faster") {
      out.predicted_ms = w.predicted_ms;
    }
  }
  DISCO_CHECK(out.predicted_ms > 0) << path->ToText();
  out.actual_ms = RunFastSlow(2000, nullptr);
  out.error_pct =
      100.0 * std::abs(out.predicted_ms - out.actual_ms) / out.actual_ms;
  std::printf("%-10s %14.3f %14.3f %9.2f%%  (baseline %.3f ms)\n", "whatif",
              out.predicted_ms, out.actual_ms, out.error_pct,
              out.baseline_ms);
  // The acceptance bar: within 10% of the true rescaled run.
  DISCO_CHECK(out.error_pct <= 10.0) << out.error_pct;
  return out;
}

struct BlameNumbers {
  std::string subject;
  std::string kind;
  double share = 0;
  long long queries = 0;
};

BlameNumbers RunBlame() {
  mediator::MediatorOptions opts;
  opts.fault_tolerance.allow_partial = true;
  opts.fault_tolerance.retry = mediator::RetryPolicy::Standard(3);
  opts.fault_tolerance.federation.scatter = true;
  opts.fault_tolerance.federation.deadline_ms = 1e9;
  mediator::Mediator med(opts);
  DISCO_CHECK(
      med.RegisterWrapper(
             MakeSource("a", "A", 100,
                        wrapper::FaultProfile::Flaky(0.3, 18).WithLatency(100)))
          .ok());
  for (const char* s : {"b", "c", "d"}) {
    DISCO_CHECK(med.RegisterWrapper(
                       MakeSource(s, std::string(1, std::toupper(s[0])), 100,
                                  wrapper::FaultProfile{}.WithLatency(100)))
                    .ok());
  }
  auto plan = algebra::Union(
      algebra::Union(algebra::Submit("a", algebra::Scan("A")),
                     algebra::Submit("b", algebra::Scan("B"))),
      algebra::Union(algebra::Submit("c", algebra::Scan("C")),
                     algebra::Submit("d", algebra::Scan("D"))));
  for (int i = 0; i < 8; ++i) {
    DISCO_CHECK(med.Execute(*plan).ok());
  }
  auto bottlenecks = med.critical_paths().TopBottlenecks(1);
  DISCO_CHECK(!bottlenecks.empty());
  BlameNumbers out;
  out.subject = bottlenecks[0].subject;
  out.kind = bottlenecks[0].kind;
  out.share = bottlenecks[0].share;
  out.queries = bottlenecks[0].queries;
  std::printf("%-10s %-14s %-14s %8.1f%%  (%lld queries)\n", "blame",
              out.subject.c_str(), out.kind.c_str(), 100.0 * out.share,
              out.queries);
  DISCO_CHECK(out.share > 0.25) << out.share;  // a real bottleneck
  return out;
}

struct OverheadNumbers {
  double off_ms_per_query = 0;
  double on_ms_per_query = 0;
  double overhead = 0;
  double simulated_ms = 0;
};

double RunOverheadPass(bool analyze, double* simulated_ms) {
  mediator::MediatorOptions options;
  options.critical_path_analysis = analyze;
  options.record_history = false;
  options.collect_traces = false;
  mediator::Mediator med(options);
  DISCO_CHECK(med.RegisterWrapper(MakeSource("left", "L", 500,
                                             wrapper::FaultProfile{}))
                  .ok());
  DISCO_CHECK(med.RegisterWrapper(MakeSource("right", "R", 500,
                                             wrapper::FaultProfile{}))
                  .ok());
  auto plan = algebra::Union(algebra::Submit("left", algebra::Scan("L")),
                             algebra::Submit("right", algebra::Scan("R")));
  const double t0 = NowMs();
  for (int i = 0; i < kOverheadRuns; ++i) {
    auto r = med.Execute(*plan);
    DISCO_CHECK(r.ok()) << r.status().ToString();
    *simulated_ms = r->measured_ms;
  }
  return (NowMs() - t0) / kOverheadRuns;
}

OverheadNumbers RunOverhead() {
  OverheadNumbers out;
  double sim_off = 0;
  double sim_on = 0;
  out.off_ms_per_query = RunOverheadPass(false, &sim_off);
  out.on_ms_per_query = RunOverheadPass(true, &sim_on);
  out.overhead = out.off_ms_per_query > 0
                     ? out.on_ms_per_query / out.off_ms_per_query
                     : 0;
  out.simulated_ms = sim_on;
  std::printf("%-10s %14.4f %14.4f %9.2fx  (wall ms/query off vs on)\n",
              "overhead", out.off_ms_per_query, out.on_ms_per_query,
              out.overhead);
  // Analysis observes charges, it never makes them.
  DISCO_CHECK(sim_off == sim_on) << sim_off << " vs " << sim_on;
  return out;
}

int Run() {
  std::printf("# critical-path analysis: prediction accuracy, blame "
              "concentration, host overhead\n");
  std::printf("%-10s %14s %14s %9s\n", "section", "predicted", "actual",
              "delta");
  WhatIfNumbers whatif = RunWhatIf();
  BlameNumbers blame = RunBlame();
  OverheadNumbers overhead = RunOverhead();

  std::FILE* f = std::fopen("BENCH_critpath.json", "w");
  DISCO_CHECK(f != nullptr) << "cannot write BENCH_critpath.json";
  std::fprintf(f,
               "{\"whatif\":{\"baseline_ms\":%.3f,\"predicted_ms\":%.3f,"
               "\"actual_ms\":%.3f,\"error_pct\":%.3f},",
               whatif.baseline_ms, whatif.predicted_ms, whatif.actual_ms,
               whatif.error_pct);
  std::fprintf(f,
               "\"blame\":{\"subject\":\"%s\",\"kind\":\"%s\","
               "\"share\":%.4f,\"queries\":%lld},",
               blame.subject.c_str(), blame.kind.c_str(), blame.share,
               blame.queries);
  std::fprintf(f,
               "\"overhead\":{\"off_ms_per_query\":%.4f,"
               "\"on_ms_per_query\":%.4f,\"overhead\":%.3f,"
               "\"simulated_ms\":%.3f}}\n",
               overhead.off_ms_per_query, overhead.on_ms_per_query,
               overhead.overhead, overhead.simulated_ms);
  std::fclose(f);
  std::printf("# wrote BENCH_critpath.json\n");

  // Machine-readable block for CI trending; the wall-clock overhead is
  // host-dependent, the rest is seeded and simulated (byte-stable).
  std::printf("\n# BENCH_SUMMARY_BEGIN\n"
              "{\n"
              "  \"bench\": \"critpath\",\n"
              "  \"whatif_error_pct\": %.3f,\n"
              "  \"dominant_share\": %.4f,\n"
              "  \"overhead\": %.3f\n"
              "}\n"
              "# BENCH_SUMMARY_END\n",
              whatif.error_pct, blame.share, overhead.overhead);
  return 0;
}

}  // namespace
}  // namespace disco

int main() { return disco::Run(); }
