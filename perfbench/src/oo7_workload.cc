// oo7-blended: the paper's setting. One object-db source from
// bench007::BuildOO7Source at paper scale, its buffer pool smaller than
// the AtomicPart + Connection extents, and a wrapper exporting
// statistics, histograms and the Figure-13 Yao rule. The stream draws
// the Ext-9 OO7 query classes with fresh constants per query.

#include <algorithm>
#include <map>

#include "bench007/oo7.h"
#include "common/str_util.h"
#include "harness.h"
#include "storage/sim_clock.h"

namespace perfbench {
namespace {

using disco::Status;
using disco::Value;

constexpr int kAtomicParts = 70000;
/// AtomicPart is 1000 pages and Connection about 2000: a 1024-page pool
/// holds neither extent plus the indexes.
constexpr size_t kPoolPages = 1024;

enum Template {
  kExact, kBuildDateRange, kIdRange, kDocJoin, kConnJoin, kGroupBy,
  kFullScan, kTemplates
};
const char* const kLabels[kTemplates] = {
    "exact-match", "builddate-range", "id-range", "document-join",
    "connection-join", "group-by", "full-scan"};
/// Per block of 20 queries.
const std::vector<int> kWeights = {4, 3, 4, 2, 2, 2, 3};

class Oo7Workload : public Workload {
 public:
  explicit Oo7Workload(uint64_t seed)
      : Workload(seed), rng_(seed ^ 0x007007ULL), mix_(kWeights) {
    for (int t = 0; t < kTemplates; ++t) draws_.emplace_back(&rng_);
  }

  Status Build() override {
    med_ = std::make_unique<disco::mediator::Mediator>();
    disco::bench007::OO7Config config;
    config.num_atomic_parts = kAtomicParts;
    config.pool_pages = kPoolPages;
    config.seed = seed_;
    DISCO_ASSIGN_OR_RETURN(std::unique_ptr<disco::sources::DataSource> src,
                           disco::bench007::BuildOO7Source(config, "oo7"));
    source_ = src.get();
    disco::wrapper::SimulatedWrapper::Options options;
    options.cost_rules = disco::bench007::Oo7YaoRuleText();
    options.histogram_buckets = 32;
    return Register(std::make_unique<disco::wrapper::SimulatedWrapper>(
        std::move(src), options));
  }

  /// Flat arrays indexed by id, and connection lengths grouped by fromId
  /// (conn_begin_[id] .. conn_begin_[id + 1]), so that the reference adds
  /// little to the memory the run measures.
  Status Snapshot() override {
    disco::storage::StorageEnv* env = source_->env();
    {
      disco::storage::MeteringPause pause(&env->clock);
      build_date_.assign(kAtomicParts, 0);
      x_.assign(kAtomicParts, 0);
      y_.assign(kAtomicParts, 0);
      type_.assign(kAtomicParts, 0);
      DISCO_RETURN_NOT_OK(source_->table("AtomicPart")->Scan(
          [&](const disco::storage::RID&, const disco::storage::Tuple& t) {
            const auto id = static_cast<size_t>(t[0].AsInt64());
            build_date_[id] = t[2].AsInt64();
            x_[id] = t[3].AsInt64();
            y_[id] = t[4].AsInt64();
            auto type = std::find(types_.begin(), types_.end(), t[5]);
            type_[id] = static_cast<uint8_t>(type - types_.begin());
            if (type == types_.end()) types_.push_back(t[5]);
            return true;
          }));
      // Two passes: count per fromId, then place each length.
      conn_begin_.assign(kAtomicParts + 1, 0);
      disco::storage::Table* conn = source_->table("Connection");
      DISCO_RETURN_NOT_OK(conn->Scan(
          [&](const disco::storage::RID&, const disco::storage::Tuple& t) {
            ++conn_begin_[static_cast<size_t>(t[0].AsInt64()) + 1];
            return true;
          }));
      for (size_t i = 1; i < conn_begin_.size(); ++i) {
        conn_begin_[i] += conn_begin_[i - 1];
      }
      conn_length_.assign(static_cast<size_t>(conn_begin_.back()), 0);
      std::vector<int32_t> next(conn_begin_.begin(), conn_begin_.end() - 1);
      DISCO_RETURN_NOT_OK(conn->Scan(
          [&](const disco::storage::RID&, const disco::storage::Tuple& t) {
            const auto from = static_cast<size_t>(t[0].AsInt64());
            conn_length_[static_cast<size_t>(next[from]++)] = t[2].AsInt64();
            return true;
          }));
      std::map<int64_t, Value> titles;
      DISCO_RETURN_NOT_OK(source_->table("Document")->Scan(
          [&](const disco::storage::RID&, const disco::storage::Tuple& t) {
            titles[t[0].AsInt64()] = t[1];
            return true;
          }));
      DISCO_RETURN_NOT_OK(source_->table("CompositePart")->Scan(
          [&](const disco::storage::RID&, const disco::storage::Tuple& t) {
            auto doc = titles.find(t[2].AsInt64());
            if (doc != titles.end()) {
              composite_titles_.emplace_back(t[0].AsInt64(), doc->second);
            }
            return true;
          }));
    }
    // Leave the source exactly as set-up left it: cold pool, zero clock.
    env->pool.Clear();
    env->pool.ResetStats();
    env->clock.Reset();
    return Status::OK();
  }

  Op Next() override {
    const int t = mix_.Next();
    EvenDraw& d = draws_[static_cast<size_t>(t)];
    Op op;
    op.label = kLabels[t];
    auto add = [&op](const std::vector<Value>& row) {
      op.expected.push_back(HashRow(row));
    };
    switch (t) {
      case kExact: {
        const int64_t id = d.NextInt(0, kAtomicParts - 1);
        op.sql = disco::StringPrintf(
            "SELECT id, x, y FROM AtomicPart WHERE id = %lld",
            static_cast<long long>(id));
        op.columns = {"id", "x", "y"};
        const auto i = static_cast<size_t>(id);
        add({Value(id), Value(x_[i]), Value(y_[i])});
        break;
      }
      case kBuildDateRange: {  // 1% .. 10% of AtomicPart
        const int64_t v = d.NextInt(9, 99);
        op.sql = disco::StringPrintf(
            "SELECT id FROM AtomicPart WHERE buildDate <= %lld",
            static_cast<long long>(v));
        op.columns = {"id"};
        for (int64_t id = 0; id < kAtomicParts; ++id) {
          if (build_date_[static_cast<size_t>(id)] <= v) add({Value(id)});
        }
        break;
      }
      case kIdRange: {  // Figure 12's 1% .. 70% selectivities
        const int64_t v = d.NextInt(kAtomicParts / 100 - 1,
                                    kAtomicParts * 7 / 10 - 1);
        op.sql = disco::StringPrintf(
            "SELECT id FROM AtomicPart WHERE id <= %lld",
            static_cast<long long>(v));
        op.columns = {"id"};
        for (int64_t id = 0; id <= v; ++id) add({Value(id)});
        break;
      }
      case kDocJoin: {
        const int64_t v = d.NextInt(9, 99);
        op.sql = disco::StringPrintf(
            "SELECT title FROM Document, CompositePart "
            "WHERE Document.id = CompositePart.documentId "
            "AND CompositePart.id <= %lld",
            static_cast<long long>(v));
        op.columns = {"title"};
        for (const auto& [id, title] : composite_titles_) {
          if (id <= v) add({title});
        }
        break;
      }
      case kConnJoin: {
        const int64_t v = d.NextInt(49, 499);
        op.sql = disco::StringPrintf(
            "SELECT length FROM AtomicPart, Connection "
            "WHERE AtomicPart.id = Connection.fromId AND id <= %lld",
            static_cast<long long>(v));
        op.columns = {"length"};
        for (int32_t c = 0; c < conn_begin_[static_cast<size_t>(v) + 1]; ++c) {
          add({Value(conn_length_[static_cast<size_t>(c)])});
        }
        break;
      }
      case kGroupBy: {
        const int64_t v = d.NextInt(99, 999);
        op.sql = disco::StringPrintf(
            "SELECT type, count(*) FROM AtomicPart WHERE buildDate <= %lld "
            "GROUP BY type",
            static_cast<long long>(v));
        op.columns = {"type", "count(*)"};
        std::vector<int64_t> groups(types_.size(), 0);
        for (size_t i = 0; i < type_.size(); ++i) {
          if (build_date_[i] <= v) ++groups[type_[i]];
        }
        for (size_t g = 0; g < groups.size(); ++g) {
          if (groups[g] > 0) add({types_[g], Value(groups[g])});
        }
        break;
      }
      default: {  // kFullScan: x has no index, 90% .. 100% qualify
        const int64_t v = d.NextInt(0, 9999);
        op.sql = disco::StringPrintf(
            "SELECT id FROM AtomicPart WHERE x >= %lld",
            static_cast<long long>(v));
        op.columns = {"id"};
        for (int64_t id = 0; id < kAtomicParts; ++id) {
          if (x_[static_cast<size_t>(id)] >= v) add({Value(id)});
        }
        break;
      }
    }
    std::sort(op.expected.begin(), op.expected.end());
    return op;
  }

  int exact_ops() const override { return 400; }
  bool fault_free() const override { return true; }

  std::string Describe() const override {
    std::string out = disco::StringPrintf(
        "source oo7 (object-db), buffer pool %zu pages of %u bytes\n",
        source_->env()->pool.capacity(), 4096u);
    for (const disco::storage::Table* t : source_->tables()) {
      out += disco::StringPrintf(
          "  %-14s %7lld rows %5lld heap pages\n", t->name().c_str(),
          static_cast<long long>(t->heap().num_records()),
          static_cast<long long>(t->heap().num_pages()));
    }
    return out;
  }

 private:
  disco::Rng rng_;
  BlockMix mix_;
  std::vector<EvenDraw> draws_;
  disco::sources::DataSource* source_ = nullptr;  // owned by the wrapper
  // The reference snapshot.
  std::vector<int64_t> build_date_, x_, y_;  // by AtomicPart id
  std::vector<uint8_t> type_;                // index into types_
  std::vector<Value> types_;
  std::vector<int32_t> conn_begin_;    // by fromId, kAtomicParts + 1
  std::vector<int64_t> conn_length_;   // grouped by fromId
  std::vector<std::pair<int64_t, Value>> composite_titles_;
};

}  // namespace

std::unique_ptr<Workload> MakeOo7Workload(uint64_t seed) {
  return std::make_unique<Oo7Workload>(seed);
}

}  // namespace perfbench
