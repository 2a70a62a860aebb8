// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run is a sequence of rounds. Each round sets up a fresh deployment
// (timed: setup_s) and drives the first exact_ops() ops of the seeded
// stream through it from one client thread in a closed loop: the next op
// starts when the previous returns, since Mediator is a single-caller
// object. Every answer is checked against the workload's reference.
// Rounds repeat until --seconds have passed; every round must reproduce
// round 0's answers, simulated times and counts exactly. Measuring the
// same stream positions in every round keeps the wall figures
// independent of how many queries a machine fits in the window: the
// mediator's per-query cost grows with its history. From round 1 on,
// extra set-ups of idle deployments are timed between ops, outside any
// op's timing, so setup_s samples the host's speed across the run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
// and one traced round, with spans recorded around every public call the
// benchmark makes, fails if the two disagree, and prints the per-layer
// metrics. The last stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"
#include "harness.h"
#include "optimizer/optimizer.h"
#include "query/binder.h"
#include "query/sql_parser.h"

namespace perfbench {
namespace {

using disco::Result;
using disco::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// setup_s is the median of at least kMinSetups timed set-ups: every
/// round's own, plus extra ones paced to take kSetupShare of the run.
constexpr int kMinSetups = 3;
constexpr double kSetupShare = 0.05;

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "oo7-blended") return MakeOo7Workload(seed);
  if (name == "star-planning") return MakeStarWorkload(seed);
  if (name == "federation-faults") return MakeFederationWorkload(seed);
  return nullptr;
}

/// Outcome of one op, kept for the metrics and the identity checks.
struct OpRecord {
  Op::Kind kind = Op::Kind::kQuery;
  const char* label = "";
  bool ok = true;
  std::string error;
  double wall_ms = 0;
  double sim_ms = 0;
  double est_ms = 0;
  double sim_cpu_ms = 0;
  double sim_wait_ms = 0;
  bool plan_cache_hit = false;
  uint64_t answer = 0;  ///< digest of the returned rows
  AnswerCheck check;
};

bool IsQuery(const OpRecord& r) { return r.kind != Op::Kind::kWrite; }

/// Every count a repeated round must reproduce exactly.
using Counts = std::map<std::string, double>;

Counts TakeCounts(Workload& w) {
  disco::mediator::Mediator& med = w.med();
  Counts c;
  const disco::mediator::PlanCacheStats pc = med.plan_cache()->stats();
  c["plancache.hits"] = static_cast<double>(pc.hits);
  c["plancache.misses"] = static_cast<double>(pc.misses);
  c["plancache.invalidations"] = static_cast<double>(pc.invalidations);
  for (const char* name :
       {"disco.optimizer.plans_costed", "disco.optimizer.plans_pruned",
        "disco.optimizer.match_attempts",
        "disco.optimizer.formulas_evaluated", "disco.costmemo.hits",
        "disco.costmemo.misses", "disco.exec.submit_retries",
        "disco.mediator.hedges.won", "disco.exec.bindjoin.waves",
        "disco.guard.quarantined_rows"}) {
    c[name] = static_cast<double>(med.metrics()->counter(name)->value());
  }
  c["tap.calls"] = static_cast<double>(w.counts().calls.load());
  c["tap.failed"] = static_cast<double>(w.counts().failed.load());
  c["tap.rows"] = static_cast<double>(w.counts().rows.load());
  c["tap.pages_read"] = static_cast<double>(w.counts().pages_read.load());
  return c;
}

/// Peak resident memory of the process so far.
double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// One round: a fresh deployment and the exact head of the stream.
struct Round {
  std::unique_ptr<Workload> workload;
  double setup_s = 0;
  std::vector<OpRecord> ops;
  Counts counts;      ///< after the last op
  double busy_s = 0;  ///< wall time inside the system's calls
  bool correct = true;
  std::string first_error;
};

/// The traced probes: the planning layers priced as siblings of the
/// Query call, through their public entry points. Their results are
/// discarded; the mediator plans again inside Query.
void RunProbes(Workload& w, const std::string& sql, int q,
               const disco::optimizer::Optimizer& opt) {
  SpanRecorder& spans = w.spans();
  disco::mediator::Mediator& med = w.med();
  int s = spans.Begin("query.parse", -1, q);
  Result<disco::query::ParsedQuery> parsed = disco::query::ParseSql(sql);
  spans.End(s);
  if (!parsed.ok()) return;
  s = spans.Begin("query.bind", -1, q);
  Result<disco::query::BoundQuery> bound =
      disco::query::Bind(*parsed, med.catalog());
  spans.End(s);
  if (!bound.ok()) return;
  disco::optimizer::OptimizerOptions options = med.options().optimizer;
  options.memo = nullptr;  // run-local memo: the price of a cold plan
  options.pool = nullptr;
  options.trace = nullptr;
  s = spans.Begin("optimizer.optimize", -1, q);
  Result<disco::optimizer::OptimizedPlan> plan = opt.Optimize(*bound, options);
  spans.End(s);
  if (!plan.ok()) return;
  s = spans.Begin("costmodel.estimate", -1, q);
  Result<disco::costmodel::PlanEstimate> est =
      med.estimator().Estimate(*plan->plan, options.estimate);
  spans.End(s);
}

/// Times one more set-up of a deployment that runs nothing.
double TimedSetUp(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  const int64_t t0 = NowNs();
  Status s = w->Build();
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  DISCO_CHECK(s.ok()) << "set-up failed: " << s.ToString();
  return seconds;
}

/// The run's set-up times. Between ops, Pace() times one more set-up
/// whenever another fits in kSetupShare of the time since pacing began,
/// so cheap set-ups are sampled evenly across the run, and a costly one
/// waits until the run has had time enough for it.
class SetupSamples {
 public:
  explicit SetupSamples(const Args& args) : args_(args) {}
  void Add(double seconds) { times_.push_back(seconds); }
  void Pace() {
    const int64_t now = NowNs();
    if (pace_start_ns_ < 0) pace_start_ns_ = now;
    const double budget_s =
        kSetupShare * static_cast<double>(now - pace_start_ns_) / 1e9;
    const double next_s = times_.empty() ? 0 : times_.back();
    if (paced_s_ + next_s > budget_s) return;
    Add(TimedSetUp(args_));
    paced_s_ += times_.back();
  }
  const std::vector<double>& times() const { return times_; }

 private:
  const Args& args_;
  int64_t pace_start_ns_ = -1;
  double paced_s_ = 0;
  std::vector<double> times_;
};

/// Checks one answer against its reference; records the digest.
void CheckAnswer(const Op& op, int i, bool fault_free,
                 const disco::mediator::QueryResult& r, OpRecord* rec,
                 Round* round) {
  auto fail = [&](std::string why) {
    if (round->correct) {
      round->first_error = disco::StringPrintf("op %d (%s): ", i, op.label) +
                           why + " -- " +
                           (op.sql.empty() ? op.plan->ToString() : op.sql);
    }
    round->correct = false;
  };
  Result<std::vector<uint64_t>> got =
      HashAnswer(r.columns, r.tuples, op.columns);
  if (!got.ok()) return fail(got.status().ToString());
  rec->check = CompareAnswers(op.expected, *got);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (uint64_t h : *got) digest = (digest ^ h) * 0x100000001b3ULL;
  rec->answer = digest;
  const int64_t returned = static_cast<int64_t>(got->size());
  const bool exact = rec->check.unexpected == 0 &&
                     rec->check.matched == rec->check.expected &&
                     returned == rec->check.expected;
  if (rec->check.unexpected > 0 || (fault_free && !exact)) {
    fail(disco::StringPrintf(
        "%lld rows returned, %lld expected, %lld matched, %lld absent from "
        "the reference",
        static_cast<long long>(returned),
        static_cast<long long>(rec->check.expected),
        static_cast<long long>(rec->check.matched),
        static_cast<long long>(rec->check.unexpected)));
  }
}

/// Sets up a fresh deployment and runs the exact head of its stream.
/// With `setups`, extra set-ups are paced in between ops.
Round RunRound(const Args& args, bool traced, SetupSamples* setups) {
  Round round;
  round.workload = MakeWorkload(args.workload, args.seed);
  Workload& w = *round.workload;
  const int64_t setup_start = NowNs();
  Status built = w.Build();
  round.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  DISCO_CHECK(built.ok()) << "set-up failed: " << built.ToString();
  Status snap = w.Snapshot();
  DISCO_CHECK(snap.ok()) << "snapshot failed: " << snap.ToString();

  disco::mediator::Mediator& med = w.med();
  SpanRecorder& spans = w.spans();
  spans.set_enabled(traced);
  disco::optimizer::Optimizer probe_opt(&med.estimator(), &med.capabilities());
  int64_t busy_ns = 0;
  for (int i = 0; i < w.exact_ops(); ++i) {
    if (setups != nullptr) setups->Pace();
    Op op = w.Next();
    w.BeforeOp();
    OpRecord rec;
    rec.kind = op.kind;
    rec.label = op.label;
    if (op.kind == Op::Kind::kWrite) {
      const int64_t t0 = NowNs();
      Status s = op.write();
      const int64_t t1 = NowNs();
      busy_ns += t1 - t0;
      rec.wall_ms = static_cast<double>(t1 - t0) / 1e6;
      rec.ok = s.ok();
      if (!s.ok()) rec.error = s.ToString();
      round.ops.push_back(std::move(rec));
      continue;
    }
    if (op.kind == Op::Kind::kQuery && traced) {
      RunProbes(w, op.sql, i, probe_opt);
    }
    const int span = spans.Begin("mediator.query", -1, i);
    spans.set_current(span, i);
    const int64_t t0 = NowNs();
    Result<disco::mediator::QueryResult> r =
        op.kind == Op::Kind::kQuery ? med.Query(op.sql) : med.Execute(*op.plan);
    const int64_t t1 = NowNs();
    spans.End(span);
    spans.set_current(-1, -1);
    busy_ns += t1 - t0;
    rec.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    rec.ok = r.ok();
    if (!r.ok()) {
      rec.error = r.status().ToString();
      rec.check.expected = static_cast<int64_t>(op.expected.size());
    } else {
      rec.sim_ms = r->measured_ms;
      rec.est_ms = r->estimated_ms;
      rec.plan_cache_hit = r->plan_cache_hit;
      if (r->profile != nullptr) {
        // Wait as charged to the query: serial waits plus the scatter
        // phase's max-not-sum charge, where concurrent lanes wait.
        rec.sim_cpu_ms = r->profile->total_cpu_ms();
        rec.sim_wait_ms = r->profile->total_wait_ms() +
                          r->profile->scatter_charged_ms;
      }
      CheckAnswer(op, i, w.fault_free(), *r, &rec, &round);
    }
    round.ops.push_back(std::move(rec));
  }
  round.counts = TakeCounts(w);
  round.busy_s = static_cast<double>(busy_ns) / 1e9;
  return round;
}

/// Empty when `b` reproduces `a` exactly: every answer, simulated time,
/// estimate and count.
std::string Difference(const Round& a, const Round& b) {
  if (a.ops.size() != b.ops.size()) return "op counts differ";
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const OpRecord& x = a.ops[i];
    const OpRecord& y = b.ops[i];
    if (x.kind != y.kind || x.ok != y.ok || x.error != y.error ||
        x.answer != y.answer || x.sim_ms != y.sim_ms || x.est_ms != y.est_ms ||
        x.sim_cpu_ms != y.sim_cpu_ms || x.sim_wait_ms != y.sim_wait_ms ||
        x.plan_cache_hit != y.plan_cache_hit) {
      return disco::StringPrintf("op %zu (%s) differs", i, x.label);
    }
  }
  for (const auto& [name, value] : a.counts) {
    auto it = b.counts.find(name);
    if (it == b.counts.end() || it->second != value) {
      return "count " + name + " differs";
    }
  }
  return "";
}

/// Linear-interpolated percentile of `v` (0..100).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The tail percentile reported as p99: 99, or the highest percentile
/// with at least ten samples beyond it when there are fewer than 1000.
double TailPercentile(size_t n) {
  if (n == 0) return 99;
  return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// Simulated time, q-error and completeness of one round.
void ExactMetrics(const Round& round, std::vector<Metric>* out) {
  std::vector<double> sim, qerr;
  int64_t expected = 0, matched = 0;
  for (const OpRecord& r : round.ops) {
    if (!IsQuery(r)) continue;
    expected += r.check.expected;
    if (!r.ok) continue;
    matched += r.check.matched;
    sim.push_back(r.sim_ms);
    if (r.est_ms > 0 && r.sim_ms > 0) {
      qerr.push_back(std::max(r.est_ms / r.sim_ms, r.sim_ms / r.est_ms));
    }
  }
  const auto n = static_cast<int64_t>(sim.size());
  out->push_back({"sim_ms_p50", Percentile(sim, 50), "ms", n});
  out->push_back(
      {"sim_ms_p99", Percentile(sim, TailPercentile(sim.size())), "ms", n});
  out->push_back({"qerror_p90", Percentile(qerr, 90), "ratio",
                  static_cast<int64_t>(qerr.size())});
  out->push_back({"completeness",
                  expected > 0 ? static_cast<double>(matched) /
                                     static_cast<double>(expected)
                               : 1.0,
                  "ratio", expected});
}

int64_t Failed(const Round& round) {
  int64_t n = 0;
  for (const OpRecord& r : round.ops) n += r.ok ? 0 : 1;
  return n;
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  std::printf("#   %-34s %16s  %-9s %8s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("#   %-34s %16.6f  %-9s %8lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

/// Per op label of one round: count, failures, median wall and simulated
/// time, median q-error, and the first error seen.
void PrintMix(const Round& round) {
  struct Row {
    int64_t failed = 0;
    std::vector<double> wall, sim, qerr;
    std::string error;
  };
  std::map<std::string, Row> rows;
  for (const OpRecord& r : round.ops) {
    Row& row = rows[r.label];
    row.wall.push_back(r.wall_ms);
    if (r.ok) {
      row.sim.push_back(r.sim_ms);
      if (r.est_ms > 0 && r.sim_ms > 0) {
        row.qerr.push_back(std::max(r.est_ms / r.sim_ms, r.sim_ms / r.est_ms));
      }
    } else if (row.failed++ == 0) {
      row.error = r.error;
    }
  }
  std::printf("# %-22s %6s %6s %11s %13s %10s\n", "op", "count", "failed",
              "wall_ms_p50", "sim_ms_p50", "qerror_p50");
  for (const auto& [label, row] : rows) {
    std::printf("# %-22s %6zu %6lld %11.4f %13.3f %10.3f %s\n", label.c_str(),
                row.wall.size(), static_cast<long long>(row.failed),
                Percentile(row.wall, 50), Percentile(row.sim, 50),
                Percentile(row.qerr, 50), row.error.c_str());
  }
}

int EndToEnd(const Args& args) {
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Round> rounds;
  SetupSamples setups(args);
  double rss_mb = 0;
  bool correct = true;
  std::string why;
  while (rounds.empty() || NowNs() < stop) {
    // Round 0 runs alone, so peak_rss_mb sees one deployment.
    Round round =
        RunRound(args, /*traced=*/false, rounds.empty() ? nullptr : &setups);
    setups.Add(round.setup_s);
    if (rounds.empty()) {
      // Before any later deployment can fragment the heap.
      rss_mb = PeakRssMb();
      std::printf("# workload %s, seed %llu, closed loop, 1 client\n%s",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed),
                  round.workload->Describe().c_str());
    }
    if (correct && !round.correct) {
      correct = false;
      why = round.first_error;
    }
    if (correct && !rounds.empty()) {
      why = Difference(rounds.front(), round);
      correct = why.empty();
    }
    round.workload.reset();
    rounds.push_back(std::move(round));
  }
  while (static_cast<int>(setups.times().size()) < kMinSetups) {
    setups.Add(TimedSetUp(args));
  }

  std::vector<double> wall;
  double busy_s = 0;
  int64_t attempted = 0, failed = 0;
  for (const Round& round : rounds) {
    for (const OpRecord& r : round.ops) {
      if (IsQuery(r)) wall.push_back(r.wall_ms);
    }
    busy_s += round.busy_s;
    attempted += static_cast<int64_t>(round.ops.size());
    failed += Failed(round);
  }
  const auto n = static_cast<int64_t>(wall.size());
  std::vector<Metric> metrics;
  ExactMetrics(rounds.front(), &metrics);
  metrics.push_back({"setup_s", Percentile(setups.times(), 50), "s",
                     static_cast<int64_t>(setups.times().size())});
  metrics.push_back({"peak_rss_mb", rss_mb, "MiB", 1});
  // Reported but not in the JSON: on a shared host these move with the
  // host's speed by more than any bound the benchmark may set.
  const std::vector<Metric> unbounded = {
      {"wall_ms_p50", Percentile(wall, 50), "ms", n},
      {"wall_ms_p99", Percentile(wall, TailPercentile(wall.size())), "ms", n},
      {"qps", static_cast<double>(n) / busy_s, "queries/s", n}};

  PrintTable("end-to-end metrics", metrics);
  PrintTable("also measured, not bounded", unbounded);
  PrintMix(rounds.front());
  std::printf("# %zu rounds of %zu ops, wall p99 taken at p%.2f, busy %.3f "
              "s, %.1f s in all\n",
              rounds.size(), rounds.front().ops.size(),
              TailPercentile(wall.size()), busy_s,
              static_cast<double>(NowNs() - start) / 1e9);
  if (!correct) std::printf("# INCORRECT: %s\n", why.c_str());
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// Mean span durations by name, and the split of mediator.query spans
/// into wrapper children and self time.
struct LayerTimes {
  std::map<std::string, double> mean_us;  ///< per span of that name
  double query_us = 0;    ///< mean mediator.query span
  double wrapper_us = 0;  ///< wrapper children per mediator.query span
  double self_us = 0;     ///< mediator.query minus its wrapper children
};

/// Length of the union of [start, end) intervals.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) covered += cur_e - cur_s;
  return covered;
}

LayerTimes Layers(const std::vector<Span>& spans) {
  LayerTimes out;
  std::map<std::string, std::pair<double, int64_t>> sum;  // ns, count
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    auto& [ns, count] = sum[s.name];
    ns += static_cast<double>(s.end_ns - s.start_ns);
    ++count;
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  for (const auto& [name, v] : sum) {
    out.mean_us[name] = v.first / 1e3 / static_cast<double>(v.second);
  }
  double self_ns = 0, child_ns = 0;
  int64_t calls = 0;
  for (size_t id = 0; id < spans.size(); ++id) {
    const Span& s = spans[id];
    if (std::strcmp(s.name, "mediator.query") != 0) continue;
    ++calls;
    auto it = children.find(static_cast<int>(id));
    const int64_t covered = it == children.end() ? 0 : CoveredNs(it->second);
    child_ns += static_cast<double>(covered);
    self_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  if (calls > 0) {
    out.query_us = out.mean_us["mediator.query"];
    out.wrapper_us = child_ns / 1e3 / static_cast<double>(calls);
    out.self_us = self_ns / 1e3 / static_cast<double>(calls);
  }
  return out;
}

/// The layer table: where the wall time of one Query/Execute call goes.
/// Wrapper spans are measured inside the call. The planning layers are
/// priced by their sibling probes and charged where the mediator pays
/// them: parse and bind on every SQL query, a full optimization on a
/// plan-cache miss, a re-estimate on a hit. The remainder is the
/// executor, its operators and per-query bookkeeping.
void PrintLayerTable(const std::vector<Span>& spans,
                     const std::vector<OpRecord>& ops, const LayerTimes& lt) {
  std::map<std::string, double> paid_ns;
  int64_t calls = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "mediator.query") == 0) ++calls;
    if (s.query < 0 || s.parent >= 0) continue;
    const OpRecord& op = ops[static_cast<size_t>(s.query)];
    const std::string name = s.name;
    const bool charged =
        name == "query.parse" || name == "query.bind" ||
        (name == "optimizer.optimize" && !op.plan_cache_hit) ||
        (name == "costmodel.estimate" && op.plan_cache_hit);
    if (charged) paid_ns[name] += static_cast<double>(s.end_ns - s.start_ns);
  }
  if (calls == 0 || lt.query_us <= 0) return;
  std::vector<std::pair<double, std::string>> rows = {
      {lt.wrapper_us, "wrapper.execute"}};
  double planning = 0;
  for (const auto& [name, ns] : paid_ns) {
    const double us = ns / 1e3 / static_cast<double>(calls);
    planning += us;
    rows.push_back({us, name});
  }
  rows.push_back({std::max(0.0, lt.self_us - planning), "mediator.other"});
  std::sort(rows.rbegin(), rows.rend());
  std::printf("# layer table: us per call (share of mediator.query_us "
              "%.1f us)\n",
              lt.query_us);
  for (const auto& [us, name] : rows) {
    std::printf("#   layer %-22s %12.2f us %7.1f%%\n", name.c_str(), us,
                100.0 * us / lt.query_us);
  }
  std::printf("# top three: %s, %s, %s\n", rows[0].second.c_str(),
              rows[1].second.c_str(), rows[2].second.c_str());
}

int PerLayer(const Args& args) {
  Round untraced = RunRound(args, /*traced=*/false, nullptr);
  untraced.workload.reset();
  Round traced = RunRound(args, /*traced=*/true, nullptr);

  bool correct = untraced.correct && traced.correct;
  std::string why = !untraced.correct ? untraced.first_error
                                      : traced.first_error;
  if (correct) {
    why = Difference(untraced, traced);
    if (!why.empty()) {
      correct = false;
      why = "traced run: " + why;
    }
  }

  const Counts& c = traced.counts;
  auto get = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  int64_t queries = 0, failed = 0;
  double untraced_wall_ms = 0, cpu = 0, wait = 0;
  for (size_t i = 0; i < traced.ops.size(); ++i) {
    const OpRecord& r = traced.ops[i];
    if (!IsQuery(r)) continue;
    ++queries;
    untraced_wall_ms += untraced.ops[i].wall_ms;
    cpu += r.sim_cpu_ms;
    wait += r.sim_wait_ms;
    failed += r.ok ? 0 : 1;
  }
  const double q = static_cast<double>(std::max<int64_t>(queries, 1));
  const std::vector<Span>& spans = traced.workload->spans().spans();
  const LayerTimes lt = Layers(spans);
  auto mean = [&](const char* name) {
    auto it = lt.mean_us.find(name);
    return it == lt.mean_us.end() ? 0.0 : it->second;
  };
  const double hits = get("plancache.hits");
  const double misses = get("plancache.misses");
  const double costed = get("disco.optimizer.plans_costed");
  const double pruned = get("disco.optimizer.plans_pruned");
  const double memo_hits = get("disco.costmemo.hits");
  const double memo_misses = get("disco.costmemo.misses");

  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit, queries});
  };
  add("query.parse_us", mean("query.parse"), "us");
  add("query.bind_us", mean("query.bind"), "us");
  add("optimizer.optimize_us", mean("optimizer.optimize"), "us");
  add("costmodel.estimate_us", mean("costmodel.estimate"), "us");
  add("mediator.query_us", lt.query_us, "us");
  add("wrapper.execute_us", lt.wrapper_us, "us");
  add("mediator.self_us", lt.self_us, "us");
  add("trace.overhead_ratio", ratio(lt.query_us, untraced_wall_ms * 1e3 / q),
      "ratio");
  add("mediator.plan_cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  add("mediator.plan_cache.invalidations", get("plancache.invalidations"),
      "count");
  add("optimizer.plans_costed", costed / q, "count");
  add("optimizer.pruned_share", ratio(pruned, costed + pruned), "ratio");
  add("costmodel.match_attempts", get("disco.optimizer.match_attempts") / q,
      "count");
  add("costmodel.memo_hit_ratio", ratio(memo_hits, memo_hits + memo_misses),
      "ratio");
  add("costlang.formulas", get("disco.optimizer.formulas_evaluated") / q,
      "count");
  add("wrapper.calls", get("tap.calls") / q, "count");
  add("wrapper.rows_per_call", ratio(get("tap.rows"), get("tap.calls")),
      "count");
  add("wrapper.failed_share", ratio(get("tap.failed"), get("tap.calls")),
      "ratio");
  add("storage.pages_read", get("tap.pages_read") / q, "count");
  add("mediator.exec.submit_retries", get("disco.exec.submit_retries") / q,
      "count");
  add("mediator.exec.hedges_won", get("disco.mediator.hedges.won") / q,
      "count");
  add("mediator.exec.bindjoin_waves", get("disco.exec.bindjoin.waves") / q,
      "count");
  add("mediator.guard.quarantined_rows",
      get("disco.guard.quarantined_rows") / q, "count");
  add("mediator.sim_cpu_ms", cpu / q, "ms");
  add("wrapper.sim_wait_ms", wait / q, "ms");
  add("mediator.failed_share", static_cast<double>(failed) / q, "ratio");

  PrintTable("per-layer metrics (traced run)", m);
  PrintLayerTable(spans, traced.ops, lt);
  std::printf("# %zu ops, %lld queries, %zu spans\n", traced.ops.size(),
              static_cast<long long>(queries), spans.size());
  if (!correct) std::printf("# INCORRECT: %s\n", why.c_str());
  PrintJson(correct, static_cast<int64_t>(traced.ops.size()), Failed(traced),
            m);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && MakeWorkload(args->workload, 0) != nullptr &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<oo7-blended|star-planning|federation-faults> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  disco::internal::SetMinLogSeverity(disco::internal::LogSeverity::kError);
  return args.trace ? perfbench::PerLayer(args) : perfbench::EndToEnd(args);
}
