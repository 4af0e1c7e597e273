#ifndef AQP_EXEC_EXECUTOR_H_
#define AQP_EXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/query_spec.h"
#include "runtime/parallel_for.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace aqp {

/// A query evaluated against one table, reduced to the data the aggregate
/// needs: the passing row set and the aggregate-input value per passing row.
/// Preparing once and aggregating many times is what makes the consolidated
/// (single-scan) bootstrap/diagnostic execution of §5.3.1 cheap: the filter
/// and projection run exactly once regardless of the number of resamples.
struct PreparedQuery {
  /// True when every table row passes (no filter): the passing set is the
  /// dense range [0, table_rows) and `rows` stays empty — no materialized
  /// index vector at all for the unfiltered fast path.
  bool all_rows = false;
  /// Indices (into the source table) of rows passing the filter, ascending.
  /// Empty when `all_rows` is set.
  std::vector<int64_t> rows;
  /// Aggregate-input values, aligned with the passing set. Empty iff the
  /// query is COUNT(*) (no input expression).
  std::vector<double> values;
  /// Total rows in the source table (before filtering).
  int64_t table_rows = 0;

  /// Number of rows passing the filter.
  int64_t num_passing() const {
    return all_rows ? table_rows : static_cast<int64_t>(rows.size());
  }

  /// Table row index of the i-th passing row.
  int64_t RowAt(int64_t i) const {
    return all_rows ? i : rows[static_cast<size_t>(i)];
  }

  bool has_values() const { return !values.empty() || num_passing() == 0; }
};

/// Evaluates filter + aggregate input of `query` over `table`, block-wise:
/// the filter and projection run through the vectorized expression path in
/// kVectorBlockSize-row blocks (dense blocks; passing rows become a
/// selection vector for the projection). An unfiltered query produces a
/// dense PreparedQuery (`all_rows`) with no row-index vector.
[[nodiscard]] Result<PreparedQuery> PrepareQuery(const Table& table, const QuerySpec& query);

/// Whole-vector reference implementation of PrepareQuery (the pre-vectorized
/// tree-walking path, which materializes the row-index vector even when
/// unfiltered). Retained as the comparison oracle for the vectorized path;
/// produces value-identical results.
[[nodiscard]] Result<PreparedQuery> PrepareQueryScalar(const Table& table,
                                         const QuerySpec& query);

/// Computes the plain (unweighted) aggregate from a prepared query.
/// `scale_factor` = |D|/|S| (1.0 when running directly on the full data).
[[nodiscard]] Result<double> ComputeAggregate(const PreparedQuery& prepared,
                                const AggregateSpec& aggregate,
                                double scale_factor);

/// Convenience: PrepareQuery + ComputeAggregate.
[[nodiscard]] Result<double> ExecutePlainAggregate(const Table& table,
                                     const QuerySpec& query,
                                     double scale_factor);

/// Computes the aggregate under per-row frequency weights (one weight per
/// entry of `prepared.rows`). This is θ on one Poissonized resample.
[[nodiscard]] Result<double> ComputeWeightedAggregate(const PreparedQuery& prepared,
                                        const AggregateSpec& aggregate,
                                        double scale_factor,
                                        const double* weights);

/// Executes `num_resamples` bootstrap replicates of the query in one logical
/// pass (scan consolidation, §5.3.1): the filter/projection run once, then
/// per row `num_resamples` independent Poisson(1) weights feed per-resample
/// accumulators. Resamples that fail to produce a value (e.g. an all-zero
/// weight vector on a tiny input) are skipped, so the result may have fewer
/// than `num_resamples` entries.
///
/// The replicate dimension parallelizes on `runtime` (§5.3.2): workers own
/// disjoint slices of the K accumulators over the shared prepared data, so
/// scan consolidation is preserved. Replicate k always draws from the RNG
/// stream keyed by (one draw from `rng`, k), so for a fixed incoming `rng`
/// state the replicate set is bit-identical at every thread count — the
/// default serial runtime included.
[[nodiscard]] Result<std::vector<double>> ExecuteMultiResample(
    const Table& table, const QuerySpec& query, double scale_factor,
    int num_resamples, Rng& rng, const ExecRuntime& runtime = ExecRuntime());

/// Replicates per multi-resample ParallelFor chunk: enough that each
/// chunk's pass over the prepared values amortizes across several
/// replicates' weight draws, small enough that K = 100 still splits across
/// a pool. Public because it defines the fault-injection unit geometry of
/// the bootstrap fan-out (here and in the single-scan pipeline, whose
/// replicate units lead its task list): chunk (unit) c owns replicates
/// [c*grain, min(K, (c+1)*grain)) — what tests and the chaos gate arm
/// against.
inline constexpr int64_t kReplicateGrain = 4;

/// Fault accounting for one multi-resample execution. The replicate loop
/// owns the chunk geometry (replicates per ParallelFor chunk), so it — and
/// only it — can translate the region's lost chunk indices back into an
/// exact count of replicates that died to exhausted failpoint retries.
/// Callers surface `replicates_lost` beside `replicates_used` so a salvaged
/// CI (K' < K surviving replicates) is visibly a salvage, not a silently
/// narrower request.
struct ResampleRunStats {
  /// Raw region accounting (chunks, injected failures, cancellation).
  ParallelForStats run;
  /// Replicates abandoned after exhausting chunk retries. Always 0 on
  /// fault-free runs; cancellation does not count here (a cancelled region
  /// simply never claimed the work — see ParallelForStats::cancelled).
  int replicates_lost = 0;
};

/// Same replicate computation, but over an already-prepared query — the
/// entry point the consolidated diagnostic uses to resample subsample
/// slices without re-running the filter or projection.
///
/// When `stats` is non-null it receives the run's fault accounting; lost
/// replicates have already been dropped from the returned vector (the
/// salvage contract: the surviving K' replicates are bit-identical to the
/// same replicates of a fault-free run).
[[nodiscard]] Result<std::vector<double>> MultiResampleFromPrepared(
    const PreparedQuery& prepared, const AggregateSpec& aggregate,
    double scale_factor, int num_resamples, Rng& rng,
    const ExecRuntime& runtime = ExecRuntime(),
    ResampleRunStats* stats = nullptr);

/// Scalar (row-at-a-time) reference implementation of
/// MultiResampleFromPrepared: per row, per replicate, one PoissonOneWeight
/// draw and one WeightedAccumulator::Add. Serial; draws the same RNG stream
/// positions as the fused block kernel, so for a fixed `rng` state its
/// output compares equal to the vectorized path. Exists for property tests
/// and as executable documentation of the kernel's contract.
[[nodiscard]] Result<std::vector<double>> MultiResampleReference(
    const PreparedQuery& prepared, const AggregateSpec& aggregate,
    double scale_factor, int num_resamples, Rng& rng);

/// Same replicate computation via exact with-replacement resampling
/// (the Tuple-Augmentation-style baseline of §5.1): each replicate draws
/// |S| row indices, materializes per-row counts, then aggregates. Slower and
/// O(|S|) extra memory per resample; exists to quantify the §5.1 claim.
[[nodiscard]] Result<std::vector<double>> ExecuteMultiResampleExact(const Table& table,
                                                      const QuerySpec& query,
                                                      double scale_factor,
                                                      int num_resamples,
                                                      Rng& rng);

/// One (group value, aggregate) pair from a GROUP BY execution.
struct GroupResult {
  std::string group;
  double value = 0.0;
};

/// Executes the query grouped by string column `group_column`, returning
/// one aggregate per group (groups ordered by dictionary code). Per the
/// paper each group is treated as an independent θ for estimation purposes;
/// this entry point exists for end-user queries.
[[nodiscard]] Result<std::vector<GroupResult>> ExecuteGroupBy(const Table& table,
                                                const QuerySpec& query,
                                                const std::string& group_column,
                                                double scale_factor);

}  // namespace aqp

#endif  // AQP_EXEC_EXECUTOR_H_
