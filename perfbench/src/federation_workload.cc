// federation-faults: the fault-tolerant federation. Five sources in two
// fault domains -- an object-db image store (west) with a
// DeclareEquivalent replica (east), relational metadata and sales
// sources (west), and a scan-only file source (east) -- under a seeded
// FaultSchedule: per-domain base latency, latency storms, a flap window
// and a malformed-answer window, repeating every schedule period. The
// deployment allows partial answers, retries with RetryPolicy::Standard,
// sets a per-query deadline, hedges, and batches bind-join probes.
//
// Cross-source joins touch only west sources and the image replica, and
// the east-only file source appears only as a union branch, so faults
// surface as retries, hedges, quarantined rows and partial unions rather
// than as failed queries.

#include <algorithm>
#include <map>

#include "common/str_util.h"
#include "harness.h"
#include "wrapper/fault_schedule.h"

namespace perfbench {
namespace {

using disco::Status;
using disco::Value;
using disco::algebra::CmpOp;
using disco::wrapper::FaultEffect;
using disco::wrapper::FaultWindow;

constexpr int kImages = 3000;
constexpr int kPhotos = 1500;
constexpr int kSales = 2000;
constexpr int kLogs = 400;
constexpr int64_t kIdSpace = 4000;  ///< photo/sale/log ids; images hold 0..2999
constexpr int kYears = 30;           ///< Photo.year in 1990..2019

/// The schedule repeats every kPeriodMs of simulated time (about 360
/// queries); the breaker's default cooldown is 60 s.
constexpr double kPeriodMs = 300000;
constexpr int kPeriods = 100;
/// Per-query deadline: above any query under a west or east storm, below
/// a file scan during a stall.
constexpr double kDeadlineMs = 8000;
/// Added to every east submit during an east storm. Added rather than
/// multiplied, so storm unions differ only by their own work and the
/// p99 they set moves little between seeds.
constexpr double kEastStormMs = 2500;
/// A stall on the file source; the deadline cuts the few union queries
/// that run into one.
constexpr double kStallMs = 3000;

enum Template { kPhotoImage, kSalePhotoImage, kUnion3, kTemplates };
const char* const kLabels[kTemplates] = {"photo-image-join",
                                         "sale-photo-image-join",
                                         "union-3-sources"};
/// Per block of 10 ops.
const std::vector<int> kWeights = {4, 2, 4};

struct Image { int64_t id, feature, bytes; };
struct Photo { int64_t id, year, owner; };
struct Sale { int64_t id, photo, amount, region; };
struct Log { int64_t id, photo, views; };

class FederationWorkload : public Workload {
 public:
  explicit FederationWorkload(uint64_t seed)
      : Workload(seed), rng_(seed ^ 0xFED5ULL), mix_(kWeights),
        year_draw_(&rng_), region_draw_(&rng_), views_draw_(&rng_),
        feature_draw_(&rng_) {}
  // The wrappers hold a pointer to the schedule: drop them first.
  ~FederationWorkload() override { med_.reset(); }

  Status Build() override {
    disco::mediator::MediatorOptions options;
    disco::mediator::ExecOptions& ft = options.fault_tolerance;
    ft.allow_partial = true;
    ft.retry = disco::mediator::RetryPolicy::Standard(3);
    ft.federation.deadline_ms = kDeadlineMs;
    ft.federation.hedge = true;
    ft.federation.bind_batch_size = 16;
    ft.federation.bind_parallelism = 4;
    med_ = std::make_unique<disco::mediator::Mediator>(options);
    schedule_ = std::make_unique<disco::wrapper::FaultSchedule>(seed_);
    Generate();
    ConfigureFaults();

    auto images = [&](const std::string& source, const std::string& name) {
      auto src = disco::sources::MakeObjectDbSource(source);
      disco::storage::Table* t = src->CreateTable(disco::CollectionSchema(
          name, {{"imgId", disco::AttrType::kLong},
                 {"feature", disco::AttrType::kLong},
                 {"bytes", disco::AttrType::kLong}}));
      for (const Image& r : images_) {
        DISCO_RETURN_NOT_OK(
            t->Insert({Value(r.id), Value(r.feature), Value(r.bytes)}));
      }
      DISCO_RETURN_NOT_OK(t->CreateIndex("imgId"));
      return Add(std::move(src));
    };
    DISCO_RETURN_NOT_OK(images("img", "Image"));
    DISCO_RETURN_NOT_OK(images("imgcopy", "ImageCopy"));
    DISCO_RETURN_NOT_OK(med_->DeclareEquivalent("Image", "ImageCopy"));

    auto meta = disco::sources::MakeRelationalSource("meta");
    disco::storage::Table* photo = meta->CreateTable(disco::CollectionSchema(
        "Photo", {{"photoId", disco::AttrType::kLong},
                  {"year", disco::AttrType::kLong},
                  {"owner", disco::AttrType::kLong}}));
    for (const Photo& r : photos_) {
      DISCO_RETURN_NOT_OK(
          photo->Insert({Value(r.id), Value(r.year), Value(r.owner)}));
    }
    DISCO_RETURN_NOT_OK(photo->CreateIndex("photoId"));
    DISCO_RETURN_NOT_OK(Add(std::move(meta)));

    auto sales = disco::sources::MakeRelationalSource("sales");
    disco::storage::Table* sale = sales->CreateTable(disco::CollectionSchema(
        "Sale", {{"saleId", disco::AttrType::kLong},
                 {"sphoto", disco::AttrType::kLong},
                 {"amount", disco::AttrType::kLong},
                 {"region", disco::AttrType::kLong}}));
    for (const Sale& r : sales_) {
      DISCO_RETURN_NOT_OK(sale->Insert(
          {Value(r.id), Value(r.photo), Value(r.amount), Value(r.region)}));
    }
    DISCO_RETURN_NOT_OK(Add(std::move(sales)));

    auto files = disco::sources::MakeFileSource("files", /*parse_ms=*/0.2);
    disco::storage::Table* log = files->CreateTable(disco::CollectionSchema(
        "Log", {{"logId", disco::AttrType::kLong},
                {"lphoto", disco::AttrType::kLong},
                {"views", disco::AttrType::kLong}}));
    for (const Log& r : logs_) {
      DISCO_RETURN_NOT_OK(
          log->Insert({Value(r.id), Value(r.photo), Value(r.views)}));
    }
    return Add(std::move(files));
  }

  // The reference rows are the benchmark's own copies, kept by Build.
  Status Snapshot() override { return Status::OK(); }

  void BeforeOp() override { schedule_->AdvanceTo(med_->sim_now_ms()); }

  Op Next() override {
    const int t = mix_.Next();
    Op op;
    op.label = kLabels[t];
    const int64_t year = 1990 + year_draw_.NextInt(0, kYears - 1);
    std::vector<std::vector<Value>> rows;
    switch (t) {
      case kPhotoImage: {
        op.sql = disco::StringPrintf(
            "SELECT photoId, owner, feature FROM Photo, Image "
            "WHERE Photo.photoId = Image.imgId AND year = %lld",
            static_cast<long long>(year));
        op.columns = {"photoId", "owner", "feature"};
        for (const Photo& p : photos_) {
          if (p.year != year || p.id >= kImages) continue;
          rows.push_back({Value(p.id), Value(p.owner),
                          Value(images_[static_cast<size_t>(p.id)].feature)});
        }
        break;
      }
      case kSalePhotoImage: {
        const int64_t region = region_draw_.NextInt(0, 4);
        op.sql = disco::StringPrintf(
            "SELECT saleId, amount, feature FROM Sale, Photo, Image "
            "WHERE Sale.sphoto = Photo.photoId AND "
            "Photo.photoId = Image.imgId AND year = %lld AND region <= %lld",
            static_cast<long long>(year), static_cast<long long>(region));
        op.columns = {"saleId", "amount", "feature"};
        for (const Sale& s : sales_) {
          if (s.region > region || s.photo >= kImages) continue;
          auto p = photo_by_id_.find(s.photo);
          if (p == photo_by_id_.end() || p->second->year != year) continue;
          rows.push_back(
              {Value(s.id), Value(s.amount),
               Value(images_[static_cast<size_t>(s.photo)].feature)});
        }
        break;
      }
      default: {  // a plan-level union across both domains
        const int64_t views = views_draw_.NextInt(600, 900);
        const int64_t feature = feature_draw_.NextInt(0, 20);
        using disco::algebra::Project;
        using disco::algebra::Scan;
        using disco::algebra::Select;
        using disco::algebra::Submit;
        op.kind = Op::Kind::kPlan;
        op.plan = disco::algebra::Union(
            disco::algebra::Union(
                Submit("files", Project(Select(Scan("Log"), "views", CmpOp::kGe,
                                               Value(views)),
                                        {"lphoto"})),
                Submit("meta", Project(Select(Scan("Photo"), "year",
                                              CmpOp::kEq, Value(year)),
                                       {"photoId"}))),
            Submit("img", Project(Select(Scan("Image"), "feature", CmpOp::kLe,
                                         Value(feature)),
                                  {"imgId"})));
        for (const Log& l : logs_) {
          if (l.views >= views) rows.push_back({Value(l.photo)});
        }
        for (const Photo& p : photos_) {
          if (p.year == year) rows.push_back({Value(p.id)});
        }
        for (const Image& i : images_) {
          if (i.feature <= feature) rows.push_back({Value(i.id)});
        }
        break;
      }
    }
    for (const auto& r : rows) op.expected.push_back(HashRow(r));
    std::sort(op.expected.begin(), op.expected.end());
    return op;
  }

  int exact_ops() const override { return 5000; }
  bool fault_free() const override { return false; }

  std::string Describe() const override {
    return disco::StringPrintf(
        "west: img (object-db, Image %d rows), meta (relational, Photo %d), "
        "sales (relational, Sale %d)\n"
        "east: imgcopy (object-db, ImageCopy %d, replica of Image), files "
        "(file, Log %d)\n"
        "schedule: %zu windows, period %.0f ms\n",
        kImages, kPhotos, kSales, kImages, kLogs,
        schedule_->windows().size(), kPeriodMs);
  }

 private:
  Status Add(std::unique_ptr<disco::sources::DataSource> src) {
    auto sim = std::make_unique<disco::wrapper::SimulatedWrapper>(
        std::move(src), disco::wrapper::SimulatedWrapper::Options{});
    return Register(std::make_unique<disco::wrapper::ScheduledFaultWrapper>(
        std::move(sim), schedule_.get()));
  }

  void Generate() {
    disco::Rng data(seed_);
    for (int64_t i = 0; i < kImages; ++i) {
      images_.push_back(
          {i, data.NextInt64(0, 999), data.NextInt64(1, 1 << 20)});
    }
    // Distinct photo ids: a seeded sample of the id space.
    std::vector<int64_t> ids(kIdSpace);
    for (int64_t i = 0; i < kIdSpace; ++i) ids[static_cast<size_t>(i)] = i;
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[data.NextUint64(i)]);
    }
    for (int i = 0; i < kPhotos; ++i) {
      photos_.push_back({ids[static_cast<size_t>(i)],
                         1990 + data.NextInt64(0, kYears - 1),
                         data.NextInt64(0, 99)});
    }
    for (const Photo& p : photos_) photo_by_id_[p.id] = &p;
    for (int64_t i = 0; i < kSales; ++i) {
      sales_.push_back({i, data.NextInt64(0, kIdSpace - 1),
                        data.NextInt64(1, 500), data.NextInt64(0, 9)});
    }
    for (int64_t i = 0; i < kLogs; ++i) {
      logs_.push_back(
          {i, data.NextInt64(0, kIdSpace - 1), data.NextInt64(0, 999)});
    }
  }

  /// Every period: one west storm (hedges move Image branches to the
  /// replica), one east storm (slow union branches, which set
  /// sim_ms_p99), a stall on the file source (the deadline cuts the
  /// union that runs into it, about 0.3% of all queries), one east flap
  /// window (retries, breaker) and one malformed window on the file
  /// source (guard quarantine). The stall comes before the flap, whose
  /// open breaker would turn the stall's union away. The period is long
  /// against the breaker's cooldown, so each period's episode settles
  /// before the next. The seed jitters where each window falls.
  void ConfigureFaults() {
    schedule_->DefineDomain("west", {"img", "meta", "sales"});
    schedule_->DefineDomain("east", {"imgcopy", "files"});
    schedule_->DefineDomain("logs", {"files"});
    disco::Rng jitter(seed_ ^ 0x5C4EDULL);
    auto window = [&](const char* domain, FaultEffect effect, double start,
                      double length) {
      FaultWindow w;
      w.domain = domain;
      w.effect = effect;
      w.start_ms = start;
      w.end_ms = start + length;
      return w;
    };
    const double forever = kPeriodMs * kPeriods;
    FaultWindow base_west =
        window("west", FaultEffect::kLatencyStorm, 0, forever);
    base_west.storm_added_ms = 8;
    schedule_->AddWindow(base_west);
    FaultWindow base_east =
        window("east", FaultEffect::kLatencyStorm, 0, forever);
    base_east.storm_added_ms = 14;
    schedule_->AddWindow(base_east);
    for (int p = 0; p < kPeriods; ++p) {
      const double t0 = kPeriodMs * p;
      auto at = [&](double lo, double hi) {
        return t0 + kPeriodMs * (lo + (hi - lo) * jitter.NextDouble());
      };
      FaultWindow west = window("west", FaultEffect::kLatencyStorm,
                                at(0.0, 0.1), 20000);
      west.storm_factor = 2;
      west.storm_added_ms = 20;
      schedule_->AddWindow(west);
      FaultWindow east = window("east", FaultEffect::kLatencyStorm,
                                at(0.2, 0.3), 60000);
      east.storm_added_ms = kEastStormMs;
      schedule_->AddWindow(east);
      FaultWindow stall = window("logs", FaultEffect::kLatencyStorm,
                                 at(0.1, 0.15), kStallMs);
      stall.storm_added_ms = kDeadlineMs;
      schedule_->AddWindow(stall);
      FaultWindow flap =
          window("east", FaultEffect::kFlap, at(0.4, 0.5), 15000);
      flap.flap_period_ms = 400;
      flap.flap_down_fraction = 0.5;
      flap.message = "flapping uplink";
      schedule_->AddWindow(flap);
      FaultWindow lie =
          window("logs", FaultEffect::kMalform, at(0.7, 0.8), 15000);
      lie.malform_row_probability = 0.2;
      schedule_->AddWindow(lie);
    }
  }

  disco::Rng rng_;
  BlockMix mix_;
  EvenDraw year_draw_, region_draw_, views_draw_, feature_draw_;
  std::unique_ptr<disco::wrapper::FaultSchedule> schedule_;
  std::vector<Image> images_;
  std::vector<Photo> photos_;
  std::vector<Sale> sales_;
  std::vector<Log> logs_;
  std::map<int64_t, const Photo*> photo_by_id_;
};

}  // namespace

std::unique_ptr<Workload> MakeFederationWorkload(uint64_t seed) {
  return std::make_unique<FederationWorkload>(seed);
}

}  // namespace perfbench
