#include <gtest/gtest.h>

#include <memory>

#include "diagnostics/diagnostic.h"
#include "estimation/bootstrap.h"
#include "estimation/closed_form.h"
#include "runtime/cancellation.h"
#include "sampling/sampler.h"
#include "storage/table.h"
#include "util/random.h"

namespace aqp {
namespace {

std::shared_ptr<const Table> MakeColumnTable(
    const char* table_name, int64_t rows, uint64_t seed,
    double (*draw)(Rng&)) {
  Rng rng(seed);
  auto t = std::make_shared<Table>(table_name);
  Column v = Column::MakeDouble("v");
  for (int64_t i = 0; i < rows; ++i) v.AppendDouble(draw(rng));
  EXPECT_TRUE(t->AddColumn(std::move(v)).ok());
  return t;
}

double DrawGaussian(Rng& rng) { return rng.NextGaussian(100.0, 15.0); }
double DrawPareto(Rng& rng) { return rng.NextPareto(1.0, 1.05); }

QuerySpec MakeQuery(const char* table, AggregateKind kind) {
  QuerySpec q;
  q.id = "diag_test";
  q.table = table;
  q.aggregate.kind = kind;
  q.aggregate.input = ColumnRef("v");
  return q;
}

Sample DrawSample(const std::shared_ptr<const Table>& population, int64_t n,
                  uint64_t seed) {
  Rng rng(seed);
  Result<Sample> s = CreateUniformSample(population, n, true, rng);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(DefaultSubsampleSizesTest, GeometricLadder) {
  std::vector<int64_t> sizes = DefaultSubsampleSizes(100000, 100, 3);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 1000);  // n / p.
  EXPECT_EQ(sizes[1], 500);
  EXPECT_EQ(sizes[0], 250);
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
}

TEST(DefaultSubsampleSizesTest, TinySampleFloors) {
  std::vector<int64_t> sizes = DefaultSubsampleSizes(100, 100, 3);
  ASSERT_EQ(sizes.size(), 3u);
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }
  EXPECT_GE(sizes[0], 2);
}

TEST(DiagnosticTest, AcceptsBootstrapOnGaussianAvg) {
  auto population = MakeColumnTable("g", 400000, 1, DrawGaussian);
  Sample sample = DrawSample(population, 40000, 2);
  BootstrapEstimator bootstrap(60);
  DiagnosticConfig config;
  config.num_subsamples = 100;
  Rng rng(3);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kAvg),
                    bootstrap, sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->accepted);
  EXPECT_EQ(report->per_size.size(), 3u);
  EXPECT_TRUE(report->final_proportion_acceptable);
}

TEST(DiagnosticTest, AcceptsClosedFormOnGaussianAvg) {
  auto population = MakeColumnTable("g", 400000, 4, DrawGaussian);
  Sample sample = DrawSample(population, 40000, 5);
  ClosedFormEstimator closed;
  DiagnosticConfig config;
  config.num_subsamples = 100;
  Rng rng(6);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kAvg), closed,
                    sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->accepted);
}

TEST(DiagnosticTest, RejectsBootstrapOnParetoMax) {
  auto population = MakeColumnTable("p", 400000, 7, DrawPareto);
  Sample sample = DrawSample(population, 40000, 8);
  BootstrapEstimator bootstrap(60);
  DiagnosticConfig config;
  config.num_subsamples = 100;
  Rng rng(9);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("p", AggregateKind::kMax),
                    bootstrap, sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->accepted);
}

TEST(DiagnosticTest, RejectsClosedFormOnParetoSum) {
  // Infinite-variance data: CLT-based SUM intervals are unreliable, and the
  // diagnostic should notice the non-converging extrapolation.
  auto population = MakeColumnTable("p", 400000, 10, DrawPareto);
  Sample sample = DrawSample(population, 40000, 11);
  ClosedFormEstimator closed;
  DiagnosticConfig config;
  config.num_subsamples = 100;
  Rng rng(12);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("p", AggregateKind::kSum), closed,
                    sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->accepted);
}

TEST(DiagnosticTest, SubqueryCountMatchesStructure) {
  auto population = MakeColumnTable("g", 100000, 13, DrawGaussian);
  Sample sample = DrawSample(population, 20000, 14);
  BootstrapEstimator bootstrap(20);
  DiagnosticConfig config;
  config.num_subsamples = 30;
  config.subsample_sizes = {100, 200, 400};
  Rng rng(15);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kAvg),
                    bootstrap, sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  // p subsamples at each of k sizes.
  EXPECT_EQ(report->total_subqueries, 3 * 30);
  for (const DiagnosticSizeStats& stats : report->per_size) {
    EXPECT_EQ(stats.num_subsamples, 30);
  }
}

TEST(DiagnosticTest, ReducesSubsampleCountWhenSampleSmall) {
  auto population = MakeColumnTable("g", 50000, 16, DrawGaussian);
  Sample sample = DrawSample(population, 5000, 17);
  BootstrapEstimator bootstrap(20);
  DiagnosticConfig config;
  config.num_subsamples = 100;
  config.subsample_sizes = {50, 100, 200};  // 200 * 100 > 5000 -> p = 25.
  Rng rng(18);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kAvg),
                    bootstrap, sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->per_size.back().num_subsamples, 25);
}

TEST(DiagnosticTest, InvalidConfigurations) {
  auto population = MakeColumnTable("g", 10000, 19, DrawGaussian);
  Sample sample = DrawSample(population, 1000, 20);
  BootstrapEstimator bootstrap(10);
  Rng rng(21);
  QuerySpec q = MakeQuery("g", AggregateKind::kAvg);

  DiagnosticConfig decreasing;
  decreasing.subsample_sizes = {400, 200, 100};
  EXPECT_FALSE(RunDiagnostic(*sample.data, q, bootstrap,
                             sample.population_rows, decreasing, rng)
                   .ok());

  DiagnosticConfig too_big;
  too_big.subsample_sizes = {100, 200, 5000};  // 5000 > sample rows 1000.
  EXPECT_FALSE(RunDiagnostic(*sample.data, q, bootstrap,
                             sample.population_rows, too_big, rng)
                   .ok());

  // Closed form on MAX: estimator not applicable.
  ClosedFormEstimator closed;
  DiagnosticConfig config;
  EXPECT_FALSE(RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kMax),
                             closed, sample.population_rows, config, rng)
                   .ok());
}

TEST(DiagnosticTest, PerSizeStatsPopulated) {
  auto population = MakeColumnTable("g", 200000, 22, DrawGaussian);
  Sample sample = DrawSample(population, 20000, 23);
  BootstrapEstimator bootstrap(40);
  DiagnosticConfig config;
  config.num_subsamples = 40;
  Rng rng(24);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kAvg),
                    bootstrap, sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  for (const DiagnosticSizeStats& stats : report->per_size) {
    EXPECT_GT(stats.true_half_width, 0.0);
    EXPECT_GE(stats.close_fraction, 0.0);
    EXPECT_LE(stats.close_fraction, 1.0);
    EXPECT_GE(stats.spread, 0.0);
  }
  // Larger subsamples have smaller true interval widths (error shrinks
  // with subsample size).
  EXPECT_GT(report->per_size.front().true_half_width,
            report->per_size.back().true_half_width);
}

TEST(DiagnosticTest, ScaledAggregatesDiagnosable) {
  // SUM needs per-size scale factors |D| / b_i; a correct implementation
  // accepts Gaussian SUM.
  auto population = MakeColumnTable("g", 400000, 25, DrawGaussian);
  Sample sample = DrawSample(population, 40000, 26);
  ClosedFormEstimator closed;
  DiagnosticConfig config;
  config.num_subsamples = 100;
  Rng rng(27);
  Result<DiagnosticReport> report =
      RunDiagnostic(*sample.data, MakeQuery("g", AggregateKind::kSum), closed,
                    sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->accepted);
}

TEST(ConsolidatedDiagnosticTest, BitIdenticalToReferenceForClosedForm) {
  // Closed-form estimation is deterministic, so the consolidated
  // (single-scan) diagnostic must reproduce the reference implementation's
  // statistics exactly.
  auto population = MakeColumnTable("g", 200000, 30, DrawGaussian);
  Sample sample = DrawSample(population, 20000, 31);
  ClosedFormEstimator closed;
  DiagnosticConfig config;
  config.num_subsamples = 60;
  QuerySpec q = MakeQuery("g", AggregateKind::kAvg);
  q.filter = Gt(ColumnRef("v"), Literal(90.0));
  Rng rng_a(32);
  Rng rng_b(32);
  Result<DiagnosticReport> reference =
      RunDiagnostic(*sample.data, q, closed, sample.population_rows, config,
                    rng_a);
  Result<DiagnosticReport> consolidated = RunDiagnosticConsolidated(
      *sample.data, q, closed, sample.population_rows, config, rng_b);
  ASSERT_TRUE(reference.ok() && consolidated.ok());
  EXPECT_EQ(reference->accepted, consolidated->accepted);
  ASSERT_EQ(reference->per_size.size(), consolidated->per_size.size());
  for (size_t i = 0; i < reference->per_size.size(); ++i) {
    const DiagnosticSizeStats& a = reference->per_size[i];
    const DiagnosticSizeStats& b = consolidated->per_size[i];
    EXPECT_EQ(a.num_subsamples, b.num_subsamples);
    EXPECT_DOUBLE_EQ(a.true_half_width, b.true_half_width);
    EXPECT_DOUBLE_EQ(a.mean_deviation, b.mean_deviation);
    EXPECT_DOUBLE_EQ(a.spread, b.spread);
    EXPECT_DOUBLE_EQ(a.close_fraction, b.close_fraction);
  }
}

TEST(ConsolidatedDiagnosticTest, SameDecisionsForBootstrap) {
  // Bootstrap draws differ across implementations (different RNG
  // consumption), but the accept/reject decisions must agree on clear-cut
  // cases.
  auto friendly = MakeColumnTable("g", 400000, 33, DrawGaussian);
  Sample friendly_sample = DrawSample(friendly, 40000, 34);
  auto hostile = MakeColumnTable("p", 400000, 35, DrawPareto);
  Sample hostile_sample = DrawSample(hostile, 40000, 36);
  BootstrapEstimator bootstrap(60);
  DiagnosticConfig config;
  config.num_subsamples = 100;
  Rng rng(37);
  Result<DiagnosticReport> accept = RunDiagnosticConsolidated(
      *friendly_sample.data, MakeQuery("g", AggregateKind::kAvg), bootstrap,
      friendly_sample.population_rows, config, rng);
  ASSERT_TRUE(accept.ok());
  EXPECT_TRUE(accept->accepted);
  Result<DiagnosticReport> reject = RunDiagnosticConsolidated(
      *hostile_sample.data, MakeQuery("p", AggregateKind::kMax), bootstrap,
      hostile_sample.population_rows, config, rng);
  ASSERT_TRUE(reject.ok());
  EXPECT_FALSE(reject->accepted);
}

TEST(ConsolidatedDiagnosticTest, FallsBackForEstimatorWithoutPreparedPath) {
  // An estimator that only implements Estimate() must still be diagnosable
  // through the consolidated entry point (internal fallback).
  class MinimalEstimator final : public ErrorEstimator {
   public:
    std::string name() const override { return "minimal"; }
    bool Applicable(const QuerySpec&) const override { return true; }
    Result<ConfidenceInterval> Estimate(const Table& sample,
                                        const QuerySpec& query,
                                        double scale_factor, double alpha,
                                        Rng& rng) const override {
      ClosedFormEstimator closed;
      return closed.Estimate(sample, query, scale_factor, alpha, rng);
    }
  };
  auto population = MakeColumnTable("g", 100000, 38, DrawGaussian);
  Sample sample = DrawSample(population, 10000, 39);
  MinimalEstimator estimator;
  DiagnosticConfig config;
  config.num_subsamples = 40;
  Rng rng(40);
  Result<DiagnosticReport> report = RunDiagnosticConsolidated(
      *sample.data, MakeQuery("g", AggregateKind::kAvg), estimator,
      sample.population_rows, config, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->per_size.size(), 3u);
}

TEST(ConsolidatedDiagnosticTest, ErrorPathsMatchReference) {
  auto population = MakeColumnTable("g", 10000, 41, DrawGaussian);
  Sample sample = DrawSample(population, 1000, 42);
  ClosedFormEstimator closed;
  Rng rng(43);
  DiagnosticConfig decreasing;
  decreasing.subsample_sizes = {400, 200, 100};
  EXPECT_FALSE(RunDiagnosticConsolidated(*sample.data,
                                         MakeQuery("g", AggregateKind::kAvg),
                                         closed, sample.population_rows,
                                         decreasing, rng)
                   .ok());
  DiagnosticConfig config;
  EXPECT_FALSE(RunDiagnosticConsolidated(*sample.data,
                                         MakeQuery("g", AggregateKind::kMax),
                                         closed, sample.population_rows,
                                         config, rng)
                   .ok());
}

TEST(DiagnosticCancellationTest, LateTripYieldsNoVerdict) {
  // The token trips while the last size class runs, after every class has
  // passed its 10-subsample floor. A verdict read from the subsamples that
  // happened to finish would depend on timing; the run must report the
  // cancellation instead, on both implementations.
  class CancellingEstimator final : public ErrorEstimator {
   public:
    CancellingEstimator(CancellationToken token, int trip_at)
        : token_(std::move(token)), trip_at_(trip_at) {}
    std::string name() const override { return "cancelling"; }
    bool Applicable(const QuerySpec&) const override { return true; }
    Result<ConfidenceInterval> Estimate(const Table& sample,
                                        const QuerySpec& query,
                                        double scale_factor, double alpha,
                                        Rng& rng) const override {
      Tick();
      return closed_.Estimate(sample, query, scale_factor, alpha, rng);
    }
    Result<ConfidenceInterval> EstimateFromPrepared(
        const PreparedQuery& prepared, const AggregateSpec& aggregate,
        double scale_factor, double alpha, Rng& rng) const override {
      Tick();
      return closed_.EstimateFromPrepared(prepared, aggregate, scale_factor,
                                          alpha, rng);
    }

   private:
    void Tick() const {
      if (++calls_ == trip_at_) token_.Cancel();
    }
    ClosedFormEstimator closed_;
    CancellationToken token_;
    int trip_at_;
    mutable int calls_ = 0;
  };
  auto population = MakeColumnTable("g", 100000, 44, DrawGaussian);
  Sample sample = DrawSample(population, 12000, 45);
  DiagnosticConfig config;
  config.num_subsamples = 40;  // 3 sizes x 40 subsamples = 120 estimates.
  QuerySpec q = MakeQuery("g", AggregateKind::kAvg);
  // Serial runtime: the token is polled between subsamples, so the trip at
  // estimate 100 leaves size 3 with about 20 of its 40 subsamples done.
  for (bool consolidated : {false, true}) {
    CancellationToken token = CancellationToken::Cancellable();
    ExecRuntime runtime = ExecRuntime().WithToken(token);
    CancellingEstimator estimator(token, 100);
    Rng rng(46);
    Result<DiagnosticReport> report =
        consolidated
            ? RunDiagnosticConsolidated(*sample.data, q, estimator,
                                        sample.population_rows, config, rng,
                                        runtime)
            : RunDiagnostic(*sample.data, q, estimator,
                            sample.population_rows, config, rng, runtime);
    ASSERT_TRUE(token.CancelRequested()) << consolidated;
    EXPECT_EQ(report.status().code(), StatusCode::kCancelled)
        << consolidated << ": " << report.status().ToString();
  }
}

}  // namespace
}  // namespace aqp
