#ifndef AQP_DIAGNOSTICS_DIAGNOSTIC_H_
#define AQP_DIAGNOSTICS_DIAGNOSTIC_H_

#include <cstdint>
#include <vector>

#include "estimation/error_estimator.h"
#include "exec/query_spec.h"
#include "runtime/parallel_for.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace aqp {

/// Parameters of the Kleiner et al. diagnostic (paper Appendix A,
/// Algorithm 1). Defaults follow the paper's experimental settings: p = 100,
/// k = 3, c1 = c2 = 0.2, c3 = 0.5, rho = 0.95.
struct DiagnosticConfig {
  /// Increasing subsample sizes b_1 < ... < b_k. Empty means "derive from
  /// the sample": b_k = n / p, halving downward k times.
  std::vector<int64_t> subsample_sizes;
  /// p: subsamples simulated per size.
  int num_subsamples = 100;
  /// k when `subsample_sizes` is empty.
  int num_sizes = 3;
  /// Acceptable relative deviation of mean estimated error from true error.
  double c1 = 0.2;
  /// Acceptable relative spread of estimated errors.
  double c2 = 0.2;
  /// "Close enough" threshold for the final-proportion test.
  double c3 = 0.5;
  /// Minimum proportion of subsamples whose estimate must be close at b_k.
  double rho = 0.95;
  /// Coverage level the error estimates target.
  double alpha = 0.95;
};

/// Derives the default geometric ladder of subsample sizes for a sample of
/// `sample_rows` rows: b_k = sample_rows / p, each lower size half the next.
/// Mirrors the paper's 50 MB / 100 MB / 200 MB ladder, expressed in rows.
std::vector<int64_t> DefaultSubsampleSizes(int64_t sample_rows, int p, int k);

/// Per-size statistics the algorithm computes (one row per b_i).
struct DiagnosticSizeStats {
  int64_t subsample_size = 0;   ///< b_i.
  int num_subsamples = 0;       ///< p actually used at this size.
  double true_half_width = 0.0; ///< x_i.
  double mean_deviation = 0.0;  ///< Δ_i = |mean(x̂) − x_i| / x_i.
  double spread = 0.0;          ///< σ_i = stddev(x̂) / x_i.
  double close_fraction = 0.0;  ///< π_i = frac(|x̂_ij − x_i|/x_i ≤ c3).
  bool deviation_acceptable = true;  ///< Δ_i < Δ_{i−1} OR Δ_i < c1 (i ≥ 2).
  bool spread_acceptable = true;     ///< σ_i < σ_{i−1} OR σ_i < c2 (i ≥ 2).
};

/// Diagnostic outcome plus the evidence behind it.
struct DiagnosticReport {
  /// True iff confidence-interval estimation is judged reliable for this
  /// query on this sample.
  bool accepted = false;
  bool final_proportion_acceptable = false;  ///< π_k ≥ rho.
  std::vector<DiagnosticSizeStats> per_size;
  /// Number of subsample query executions performed (the paper's "tens of
  /// thousands of test queries" cost accounting; used by the cluster model).
  int64_t total_subqueries = 0;
};

/// Runs Algorithm 1: checks whether `estimator` (ξ) produces reliable
/// confidence intervals for `query` (θ) on `sample`, by partitioning the
/// sample into disjoint subsamples at each size b_i (valid because the
/// sample's physical order is random), computing the per-size true interval
/// x_i from the subsample θ's, and comparing ξ's estimates against it with
/// the Δ/σ/π acceptance criteria.
///
/// `population_rows` is |D|, needed to scale SUM/COUNT estimates at each
/// subsample size. If a size ladder entry b_i satisfies b_i * p > n, p is
/// reduced for that size; sizes with fewer than 10 usable subsamples fail
/// with InvalidArgument.
///
/// The p independent subsample computations (θ plus ξ's estimate) fan out on
/// `runtime` (§5.3.2); subsample j always uses the RNG stream keyed by j, so
/// the report is identical at every thread count for a fixed `rng` state.
/// When `runtime`'s token stops a fan-out short, the run returns the
/// token's kDeadlineExceeded/kCancelled status rather than a verdict read
/// from the subsamples that happened to finish.
Result<DiagnosticReport> RunDiagnostic(const Table& sample,
                                       const QuerySpec& query,
                                       const ErrorEstimator& estimator,
                                       int64_t population_rows,
                                       const DiagnosticConfig& config,
                                       Rng& rng,
                                       const ExecRuntime& runtime = ExecRuntime());

/// Scan-consolidated Algorithm 1 (paper §5.3.1): evaluates the query's
/// filter and aggregate input over the sample exactly once, then computes
/// every subsample's θ and ξ estimate from index ranges of the prepared
/// data — no per-subsample table materialization and no repeated filter
/// evaluation. Statistically identical to RunDiagnostic (bit-identical for
/// deterministic estimators such as closed forms); requires the estimator
/// to implement EstimateFromPrepared, else falls back to RunDiagnostic.
/// Cancellation behaves as in RunDiagnostic.
///
/// `shared_prepared` (may be null) supplies an already-prepared scan for
/// exactly this (sample, query) pair — e.g. from a cross-request shared
/// scan — and skips the internal PrepareQuery. PrepareQuery is
/// deterministic, so the substitution is bit-invisible.
Result<DiagnosticReport> RunDiagnosticConsolidated(
    const Table& sample, const QuerySpec& query,
    const ErrorEstimator& estimator, int64_t population_rows,
    const DiagnosticConfig& config, Rng& rng,
    const ExecRuntime& runtime = ExecRuntime(),
    const PreparedQuery* shared_prepared = nullptr);

namespace diag_internal {

/// Shared plumbing between the diagnostic implementations; not part of the
/// public API.

/// Resolves the subsample-size ladder for a sample of `sample_rows` rows,
/// validating monotonicity and feasibility.
Result<std::vector<int64_t>> ResolveSubsampleSizes(
    const DiagnosticConfig& config, int64_t sample_rows);

/// Computes one size's Δ/σ/π statistics from the per-subsample true thetas
/// and estimated half-widths, against the sample-level estimate `t`.
DiagnosticSizeStats ComputeSizeStats(const std::vector<double>& thetas,
                                     const std::vector<double>& half_widths,
                                     double t, int64_t subsample_size,
                                     const DiagnosticConfig& config);

/// Applies Algorithm 1's acceptance criteria over the collected per-size
/// stats, setting the per-size flags and the report verdict.
void ApplyAcceptanceCriteria(DiagnosticReport& report,
                             const DiagnosticConfig& config);

}  // namespace diag_internal

}  // namespace aqp

#endif  // AQP_DIAGNOSTICS_DIAGNOSTIC_H_
