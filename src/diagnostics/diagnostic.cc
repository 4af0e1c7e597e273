#include "diagnostics/diagnostic.h"

#include <algorithm>
#include <cmath>

#include "exec/executor.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"
#include "util/logging.h"
#include "util/stats.h"

namespace aqp {

std::vector<int64_t> DefaultSubsampleSizes(int64_t sample_rows, int p, int k) {
  AQP_CHECK(p > 0 && k > 0);
  std::vector<int64_t> sizes(static_cast<size_t>(k));
  int64_t top = std::max<int64_t>(sample_rows / p, 2);
  for (int i = k - 1; i >= 0; --i) {
    sizes[static_cast<size_t>(i)] = std::max<int64_t>(top, 2);
    top /= 2;
  }
  // Enforce strictly increasing sizes after the floor at 2.
  for (size_t i = 1; i < sizes.size(); ++i) {
    if (sizes[i] <= sizes[i - 1]) sizes[i] = sizes[i - 1] + 1;
  }
  return sizes;
}

namespace {

/// Relative statistic guard: when the true half-width x_i is zero, a zero
/// estimate is a perfect match and anything else is a gross miss.
double RelativeTo(double value, double reference) {
  if (reference == 0.0) return value == 0.0 ? 0.0 : 1e9;
  return value / reference;
}

/// Slot-indexed per-subsample results: the parallel loops write subsample
/// j's θ and x̂ into slot j, and the stats see them compacted in j order —
/// so the collected vectors are independent of chunking and thread count.
struct SubsampleSlots {
  std::vector<double> thetas;
  std::vector<double> half_widths;
  std::vector<char> valid;

  explicit SubsampleSlots(int p)
      : thetas(static_cast<size_t>(p), 0.0),
        half_widths(static_cast<size_t>(p), 0.0),
        valid(static_cast<size_t>(p), 0) {}

  void Set(int64_t j, double theta, double half_width) {
    thetas[static_cast<size_t>(j)] = theta;
    half_widths[static_cast<size_t>(j)] = half_width;
    valid[static_cast<size_t>(j)] = 1;
  }

  void Compact(std::vector<double>& out_thetas,
               std::vector<double>& out_half_widths) const {
    for (size_t j = 0; j < valid.size(); ++j) {
      if (!valid[j]) continue;
      out_thetas.push_back(thetas[j]);
      out_half_widths.push_back(half_widths[j]);
    }
  }
};

}  // namespace

namespace diag_internal {

Result<std::vector<int64_t>> ResolveSubsampleSizes(
    const DiagnosticConfig& config, int64_t sample_rows) {
  if (sample_rows < 4) {
    return Status::InvalidArgument("sample too small for diagnosis");
  }
  std::vector<int64_t> sizes = config.subsample_sizes;
  if (sizes.empty()) {
    sizes = DefaultSubsampleSizes(sample_rows, config.num_subsamples,
                                  config.num_sizes);
  }
  if (!std::is_sorted(sizes.begin(), sizes.end())) {
    return Status::InvalidArgument("subsample sizes must be increasing");
  }
  for (int64_t b : sizes) {
    if (b < 2 || b > sample_rows) {
      return Status::InvalidArgument(
          "subsample size " + std::to_string(b) + " invalid for sample of " +
          std::to_string(sample_rows) + " rows");
    }
    if (sample_rows / b < 10) {
      return Status::InvalidArgument(
          "subsample size " + std::to_string(b) + " leaves only " +
          std::to_string(sample_rows / b) + " disjoint subsamples");
    }
  }
  return sizes;
}

DiagnosticSizeStats ComputeSizeStats(const std::vector<double>& thetas,
                                     const std::vector<double>& half_widths,
                                     double t, int64_t subsample_size,
                                     const DiagnosticConfig& config) {
  DiagnosticSizeStats stats;
  stats.subsample_size = subsample_size;
  stats.num_subsamples = static_cast<int>(thetas.size());
  // x_i: smallest symmetric interval around theta(S) covering alpha of the
  // subsample theta distribution.
  stats.true_half_width =
      SmallestSymmetricCoverRadius(thetas, t, config.alpha);
  double mean_hw = Mean(half_widths);
  stats.mean_deviation =
      std::abs(RelativeTo(mean_hw, stats.true_half_width) - 1.0);
  if (stats.true_half_width == 0.0) {
    stats.mean_deviation = mean_hw == 0.0 ? 0.0 : 1e9;
  }
  stats.spread =
      RelativeTo(SampleStddev(half_widths), stats.true_half_width);
  int close = 0;
  for (double hw : half_widths) {
    double rel = stats.true_half_width == 0.0
                     ? (hw == 0.0 ? 0.0 : 1e9)
                     : std::abs(hw - stats.true_half_width) /
                           stats.true_half_width;
    if (rel <= config.c3) ++close;
  }
  stats.close_fraction =
      static_cast<double>(close) / static_cast<double>(half_widths.size());
  return stats;
}

void ApplyAcceptanceCriteria(DiagnosticReport& report,
                             const DiagnosticConfig& config) {
  // Acceptance criteria: deviations and spreads decreasing or small for
  // every i >= 2, and most estimates close at the largest size.
  bool all_acceptable = true;
  for (size_t i = 1; i < report.per_size.size(); ++i) {
    DiagnosticSizeStats& cur = report.per_size[i];
    const DiagnosticSizeStats& prev = report.per_size[i - 1];
    cur.deviation_acceptable = cur.mean_deviation < prev.mean_deviation ||
                               cur.mean_deviation < config.c1;
    cur.spread_acceptable =
        cur.spread < prev.spread || cur.spread < config.c2;
    all_acceptable =
        all_acceptable && cur.deviation_acceptable && cur.spread_acceptable;
  }
  report.final_proportion_acceptable =
      !report.per_size.empty() &&
      report.per_size.back().close_fraction >= config.rho;
  report.accepted = all_acceptable && report.final_proportion_acceptable;
}

}  // namespace diag_internal

Result<DiagnosticReport> RunDiagnostic(const Table& sample,
                                       const QuerySpec& query,
                                       const ErrorEstimator& estimator,
                                       int64_t population_rows,
                                       const DiagnosticConfig& config,
                                       Rng& rng, const ExecRuntime& runtime) {
  if (!estimator.Applicable(query)) {
    return Status::InvalidArgument("estimator '" + estimator.name() +
                                   "' not applicable to " + query.ToString());
  }
  int64_t n = sample.num_rows();
  Result<std::vector<int64_t>> sizes =
      diag_internal::ResolveSubsampleSizes(config, n);
  if (!sizes.ok()) return sizes.status();

  // t = theta(S): the best available estimate of theta(D).
  double sample_scale = static_cast<double>(population_rows) /
                        static_cast<double>(n);
  Result<double> t = ExecutePlainAggregate(sample, query, sample_scale);
  if (!t.ok()) return t.status();

  DiagnosticReport report;
  report.per_size.reserve(sizes->size());

  // One stream space per size, one stream per subsample: resampling
  // estimators stay reproducible at any thread count.
  RngStreamFactory streams(rng);
  for (size_t size_index = 0; size_index < sizes->size(); ++size_index) {
    int64_t b = (*sizes)[size_index];
    // Disjoint partitions of the (randomly ordered) sample are mutually
    // independent simple random samples of D — the paper's key observation.
    int p = static_cast<int>(std::min<int64_t>(config.num_subsamples, n / b));
    double subsample_scale = static_cast<double>(population_rows) /
                             static_cast<double>(b);

    RngStreamFactory size_streams = streams.Substream(size_index);
    SubsampleSlots slots(p);
    ParallelForStats run =
        ParallelFor(runtime, 0, p, 1, [&](int64_t jb, int64_t je) {
          ScopedSpan span(runtime.tracer(), "diagnostic");
          for (int64_t j = jb; j < je; ++j) {
            Table subsample = sample.SliceRows(j * b, (j + 1) * b);
            Result<double> theta =
                ExecutePlainAggregate(subsample, query, subsample_scale);
            Rng subsample_rng = size_streams.Stream(static_cast<uint64_t>(j));
            Result<ConfidenceInterval> ci = estimator.Estimate(
                subsample, query, subsample_scale, config.alpha, subsample_rng);
            if (!theta.ok() || !ci.ok()) continue;  // Degenerate subsample.
            slots.Set(j, *theta, ci->half_width);
          }
        });
    // A region cut short by cancellation left subsamples unrun: a verdict
    // from whichever ones finished in time would depend on scheduling.
    if (run.cancelled) return runtime.token().CheckCancelled("diagnostic");
    report.total_subqueries += p;

    std::vector<double> thetas;       // t̂_ij
    std::vector<double> half_widths;  // x̂_ij
    thetas.reserve(static_cast<size_t>(p));
    half_widths.reserve(static_cast<size_t>(p));
    slots.Compact(thetas, half_widths);
    if (thetas.size() < 10) {
      return Status::FailedPrecondition(
          "too few subsamples produced values at size " + std::to_string(b));
    }
    report.per_size.push_back(
        diag_internal::ComputeSizeStats(thetas, half_widths, *t, b, config));
  }

  diag_internal::ApplyAcceptanceCriteria(report, config);
  return report;
}

Result<DiagnosticReport> RunDiagnosticConsolidated(
    const Table& sample, const QuerySpec& query,
    const ErrorEstimator& estimator, int64_t population_rows,
    const DiagnosticConfig& config, Rng& rng, const ExecRuntime& runtime,
    const PreparedQuery* shared_prepared) {
  if (!estimator.Applicable(query)) {
    return Status::InvalidArgument("estimator '" + estimator.name() +
                                   "' not applicable to " + query.ToString());
  }
  int64_t n = sample.num_rows();
  Result<std::vector<int64_t>> sizes =
      diag_internal::ResolveSubsampleSizes(config, n);
  if (!sizes.ok()) return sizes.status();

  // The single pass of scan consolidation: filter + projection evaluated
  // once over the whole sample. prepared.rows is ascending by construction,
  // so each subsample's passing rows form a contiguous run. An adopted
  // shared scan replaces the private pass; PrepareQuery is deterministic so
  // either source yields the same prepared rows.
  Result<PreparedQuery> own_prepared = [&]() -> Result<PreparedQuery> {
    if (shared_prepared != nullptr) return PreparedQuery{};
    return PrepareQuery(sample, query);
  }();
  if (!own_prepared.ok()) return own_prepared.status();
  const PreparedQuery& prepared =
      shared_prepared != nullptr ? *shared_prepared : *own_prepared;

  double sample_scale = static_cast<double>(population_rows) /
                        static_cast<double>(n);
  Result<double> t =
      ComputeAggregate(prepared, query.aggregate, sample_scale);
  if (!t.ok()) return t.status();

  // Probe the estimator's prepared path once (on a tiny prefix slice)
  // before fanning out: estimators without one divert to the reference
  // implementation, and the probe keeps that check out of the parallel loop.
  {
    PreparedQuery probe;
    probe.table_rows = (*sizes)[0];
    size_t probe_len;
    if (prepared.all_rows) {
      // Dense prepared query: the prefix's passing set is the prefix itself.
      probe.all_rows = true;
      probe_len = static_cast<size_t>((*sizes)[0]);
    } else {
      probe_len = 0;
      while (probe_len < prepared.rows.size() &&
             prepared.rows[probe_len] < (*sizes)[0]) {
        ++probe_len;
      }
      probe.rows.assign(
          prepared.rows.begin(),
          prepared.rows.begin() + static_cast<int64_t>(probe_len));
    }
    if (!prepared.values.empty()) {
      probe.values.assign(
          prepared.values.begin(),
          prepared.values.begin() + static_cast<int64_t>(probe_len));
    }
    Rng probe_rng(0);
    Result<ConfidenceInterval> ci = estimator.EstimateFromPrepared(
        probe, query.aggregate, 1.0, config.alpha, probe_rng);
    if (ci.status().code() == StatusCode::kUnimplemented) {
      // Estimator lacks a prepared-query path: use the reference
      // implementation instead.
      return RunDiagnostic(sample, query, estimator, population_rows, config,
                           rng, runtime);
    }
  }

  DiagnosticReport report;
  report.per_size.reserve(sizes->size());
  RngStreamFactory streams(rng);
  for (size_t size_index = 0; size_index < sizes->size(); ++size_index) {
    int64_t b = (*sizes)[size_index];
    int p = static_cast<int>(std::min<int64_t>(config.num_subsamples, n / b));
    double subsample_scale = static_cast<double>(population_rows) /
                             static_cast<double>(b);

    // prepared.rows is ascending, so each subsample's passing rows form a
    // contiguous run; resolve all p run boundaries in one serial cursor
    // sweep, then fan the independent per-subsample estimations out. A
    // dense (unfiltered) prepared query needs no sweep: subsample j's run
    // is exactly [j*b, (j+1)*b).
    std::vector<size_t> bounds(static_cast<size_t>(p) + 1);
    if (prepared.all_rows) {
      for (int j = 0; j <= p; ++j) {
        bounds[static_cast<size_t>(j)] =
            static_cast<size_t>(static_cast<int64_t>(j) * b);
      }
    } else {
      size_t cursor = 0;
      for (int j = 0; j < p; ++j) {
        bounds[static_cast<size_t>(j)] = cursor;
        int64_t row_end = (static_cast<int64_t>(j) + 1) * b;
        while (cursor < prepared.rows.size() &&
               prepared.rows[cursor] < row_end) {
          ++cursor;
        }
      }
      bounds[static_cast<size_t>(p)] = cursor;
    }

    RngStreamFactory size_streams = streams.Substream(size_index);
    SubsampleSlots slots(p);
    ParallelForStats run =
        ParallelFor(runtime, 0, p, 1, [&](int64_t jb, int64_t je) {
          ScopedSpan span(runtime.tracer(), "diagnostic");
          for (int64_t j = jb; j < je; ++j) {
            size_t first = bounds[static_cast<size_t>(j)];
            size_t last = bounds[static_cast<size_t>(j) + 1];
            // Slice of the prepared data belonging to this subsample. Dense
            // prepared queries slice to dense sub-queries (every row of the
            // subsample passes); the row ids themselves are never consumed by
            // the estimators, only the passing count and values.
            PreparedQuery sub;
            sub.table_rows = b;
            if (prepared.all_rows) {
              sub.all_rows = true;
            } else {
              sub.rows.assign(
                  prepared.rows.begin() + static_cast<int64_t>(first),
                  prepared.rows.begin() + static_cast<int64_t>(last));
            }
            if (!prepared.values.empty()) {
              sub.values.assign(
                  prepared.values.begin() + static_cast<int64_t>(first),
                  prepared.values.begin() + static_cast<int64_t>(last));
            }
            Result<double> theta =
                ComputeAggregate(sub, query.aggregate, subsample_scale);
            Rng subsample_rng = size_streams.Stream(static_cast<uint64_t>(j));
            Result<ConfidenceInterval> ci = estimator.EstimateFromPrepared(
                sub, query.aggregate, subsample_scale, config.alpha,
                subsample_rng);
            if (!theta.ok() || !ci.ok()) continue;
            slots.Set(j, *theta, ci->half_width);
          }
        });
    // A region cut short by cancellation left subsamples unrun: a verdict
    // from whichever ones finished in time would depend on scheduling.
    if (run.cancelled) return runtime.token().CheckCancelled("diagnostic");
    report.total_subqueries += p;

    std::vector<double> thetas;
    std::vector<double> half_widths;
    thetas.reserve(static_cast<size_t>(p));
    half_widths.reserve(static_cast<size_t>(p));
    slots.Compact(thetas, half_widths);
    if (thetas.size() < 10) {
      return Status::FailedPrecondition(
          "too few subsamples produced values at size " + std::to_string(b));
    }
    report.per_size.push_back(
        diag_internal::ComputeSizeStats(thetas, half_widths, *t, b, config));
  }

  diag_internal::ApplyAcceptanceCriteria(report, config);
  return report;
}

}  // namespace aqp
