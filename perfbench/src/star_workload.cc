// star-planning: planning-heavy. One relational fact source and two
// relational dimension sources, tens to hundreds of rows per table, all
// inside their buffer pools. Each query joins the fact table to a seeded
// subset of 3-7 of the 7 dimensions under a fact-side constant: 99
// shapes compete for the mediator's 64-entry plan cache, so cache hits
// set the median and cold plans the tail. Every few hundred queries one
// dimension source gets a batch of rows and is re-registered, which
// bumps the catalog version and invalidates cached plans.

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/str_util.h"
#include "harness.h"

namespace perfbench {
namespace {

using disco::Status;
using disco::Value;

constexpr int kDims = 7;
constexpr int kFacts = 480;
/// Initial rows of Dim1..Dim7; fact keys reach 25% past them, so rows
/// appended later start joining.
constexpr int kDimRows[kDims] = {24, 40, 60, 90, 120, 160, 200};
/// Dim1..Dim4 live on dimA, Dim5..Dim7 on dimB.
constexpr int kDimASplit = 4;
constexpr int kWriteEvery = 250;  ///< queries between two writes
/// Shape popularity: the r-th most popular shape has weight
/// 1 / (r + 1)^kZipf.
constexpr double kZipf = 1.0;

std::string DimTable(int d) { return disco::StringPrintf("Dim%d", d + 1); }
std::string DimKey(int d) { return disco::StringPrintf("k%d", d + 1); }
std::string DimAttr(int d) { return disco::StringPrintf("a%d", d + 1); }

struct FactRow {
  int64_t fid, amount;
  int64_t fk[kDims];
};

class StarWorkload : public Workload {
 public:
  explicit StarWorkload(uint64_t seed)
      : Workload(seed), rng_(seed ^ 0x57A4ULL), amount_draw_(&rng_) {
    // Shapes: every subset of 3..7 dimensions. Popularity ranks interleave
    // the subset sizes (3, 4, 5, 6, 7, 3, 4, ...), so cheap and expensive
    // shapes share every popularity level. The ranking is the same for
    // every seed; the seed draws the stream from it.
    std::vector<std::vector<uint32_t>> by_size(kDims + 1);
    for (uint32_t mask = 0; mask < (1u << kDims); ++mask) {
      const int n = __builtin_popcount(mask);
      if (n >= 3) by_size[static_cast<size_t>(n)].push_back(mask);
    }
    size_t total_shapes = 0;
    for (const auto& group : by_size) total_shapes += group.size();
    for (size_t round = 0; shapes_.size() < total_shapes; ++round) {
      for (int n = 3; n <= kDims; ++n) {
        if (round < by_size[static_cast<size_t>(n)].size()) {
          shapes_.push_back(by_size[static_cast<size_t>(n)][round]);
        }
      }
    }
    double total = 0;
    for (size_t r = 0; r < shapes_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Status Build() override {
    med_ = std::make_unique<disco::mediator::Mediator>();
    disco::Rng data(seed_);

    auto fact_src = disco::sources::MakeRelationalSource("facts");
    std::vector<disco::AttributeDef> fact_attrs = {
        {"fid", disco::AttrType::kLong}};
    for (int d = 0; d < kDims; ++d) {
      fact_attrs.push_back(
          {disco::StringPrintf("fk%d", d + 1), disco::AttrType::kLong});
    }
    fact_attrs.push_back({"amount", disco::AttrType::kLong});
    disco::storage::Table* fact = fact_src->CreateTable(
        disco::CollectionSchema("Fact", fact_attrs));
    for (int i = 0; i < kFacts; ++i) {
      FactRow row{i, data.NextInt64(0, 999), {}};
      disco::storage::Tuple t = {Value(row.fid)};
      for (int d = 0; d < kDims; ++d) {
        row.fk[d] = data.NextInt64(0, kDimRows[d] * 5 / 4 - 1);
        t.push_back(Value(row.fk[d]));
      }
      t.push_back(Value(row.amount));
      DISCO_RETURN_NOT_OK(fact->Insert(t));
      facts_.push_back(row);
    }
    DISCO_RETURN_NOT_OK(fact->CreateIndex("fid"));

    std::unique_ptr<disco::sources::DataSource> dim_src[2] = {
        disco::sources::MakeRelationalSource("dimA"),
        disco::sources::MakeRelationalSource("dimB")};
    for (int d = 0; d < kDims; ++d) {
      disco::storage::Table* t =
          dim_src[d < kDimASplit ? 0 : 1]->CreateTable(disco::CollectionSchema(
              DimTable(d), {{DimKey(d), disco::AttrType::kLong},
                            {DimAttr(d), disco::AttrType::kLong}}));
      dim_tables_[d] = t;
      for (int k = 0; k < kDimRows[d]; ++k) {
        const int64_t a = data.NextInt64(0, 999);
        DISCO_RETURN_NOT_OK(t->Insert({Value(int64_t{k}), Value(a)}));
        dims_[d][k] = a;
      }
      DISCO_RETURN_NOT_OK(t->CreateIndex(DimKey(d)));
    }

    disco::wrapper::SimulatedWrapper::Options options;
    options.histogram_buckets = 8;
    DISCO_RETURN_NOT_OK(Register(
        std::make_unique<disco::wrapper::SimulatedWrapper>(std::move(fact_src),
                                                           options)));
    for (auto& src : dim_src) {
      DISCO_RETURN_NOT_OK(Register(
          std::make_unique<disco::wrapper::SimulatedWrapper>(std::move(src),
                                                             options)));
    }
    return Status::OK();
  }

  // The reference rows are the benchmark's own copies, kept by Build.
  Status Snapshot() override { return Status::OK(); }

  Op Next() override {
    if (queries_ > 0 && queries_ % kWriteEvery == 0 && !wrote_) {
      wrote_ = true;
      return NextWrite();
    }
    wrote_ = false;
    ++queries_;
    const double u = rng_.NextDouble();
    const uint32_t mask = shapes_[static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin())];
    const int64_t limit = amount_draw_.NextInt(100, 999);

    Op op;
    op.label = "star";
    std::string select = "fid", from = "Fact", where;
    op.columns = {"fid"};
    std::vector<int> joined;
    for (int d = 0; d < kDims; ++d) {
      if ((mask & (1u << d)) == 0) continue;
      joined.push_back(d);
      select += ", " + DimAttr(d);
      from += ", " + DimTable(d);
      where += disco::StringPrintf("fk%d = %s AND ", d + 1, DimKey(d).c_str());
      op.columns.push_back(DimAttr(d));
    }
    op.sql = "SELECT " + select + " FROM " + from + " WHERE " + where +
             disco::StringPrintf("amount <= %lld",
                                 static_cast<long long>(limit));
    std::vector<Value> row;
    for (const FactRow& f : facts_) {
      if (f.amount > limit) continue;
      row.assign(1, Value(f.fid));
      for (int d : joined) {
        auto it = dims_[d].find(f.fk[d]);
        if (it == dims_[d].end()) break;
        row.push_back(Value(it->second));
      }
      if (row.size() == joined.size() + 1) op.expected.push_back(HashRow(row));
    }
    std::sort(op.expected.begin(), op.expected.end());
    return op;
  }

  int exact_ops() const override { return 2000; }
  bool fault_free() const override { return true; }

  std::string Describe() const override {
    std::string out = disco::StringPrintf(
        "source facts (relational): Fact %d rows; dimA: Dim1-Dim%d, dimB: "
        "Dim%d-Dim%d (relational)\n  dimension rows:",
        kFacts, kDimASplit, kDimASplit + 1, kDims);
    for (int d = 0; d < kDims; ++d) {
      out += disco::StringPrintf(" %d", kDimRows[d]);
    }
    return out + disco::StringPrintf(
                     "; %zu shapes; a write every %d queries\n",
                     shapes_.size(), kWriteEvery);
  }

 private:
  /// Appends a batch to every dimension of one source (alternating) and
  /// re-registers it. The snapshot follows here; Op::write applies it.
  Op NextWrite() {
    const int target = writes_++ % 2;
    Op op;
    op.kind = Op::Kind::kWrite;
    op.label = target == 0 ? "append-dimA" : "append-dimB";
    std::vector<std::pair<disco::storage::Table*, disco::storage::Tuple>> rows;
    for (int d = 0; d < kDims; ++d) {
      if ((d < kDimASplit ? 0 : 1) != target) continue;
      const int64_t first = static_cast<int64_t>(dims_[d].size());
      const int batch = std::max(2, kDimRows[d] / 10);
      for (int64_t k = first; k < first + batch; ++k) {
        const int64_t a = rng_.NextInt64(0, 999);
        dims_[d][k] = a;
        rows.push_back({dim_tables_[d], {Value(k), Value(a)}});
      }
    }
    disco::mediator::Mediator* med = med_.get();
    const std::string source = target == 0 ? "dimA" : "dimB";
    op.write = [med, source, rows = std::move(rows)]() -> Status {
      for (const auto& [table, tuple] : rows) {
        DISCO_RETURN_NOT_OK(table->Insert(tuple));
      }
      return med->ReRegisterWrapper(source);
    };
    return op;
  }

  disco::Rng rng_;
  EvenDraw amount_draw_;
  std::vector<uint32_t> shapes_;  ///< by popularity rank
  std::vector<double> cdf_;
  int64_t queries_ = 0;
  bool wrote_ = false;
  int writes_ = 0;
  std::vector<FactRow> facts_;
  std::unordered_map<int64_t, int64_t> dims_[kDims];  ///< key -> attribute
  disco::storage::Table* dim_tables_[kDims] = {};     ///< owned by wrappers
};

}  // namespace

std::unique_ptr<Workload> MakeStarWorkload(uint64_t seed) {
  return std::make_unique<StarWorkload>(seed);
}

}  // namespace perfbench
