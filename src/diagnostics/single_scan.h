#ifndef AQP_DIAGNOSTICS_SINGLE_SCAN_H_
#define AQP_DIAGNOSTICS_SINGLE_SCAN_H_

#include "diagnostics/diagnostic.h"
#include "estimation/bootstrap.h"
#include "estimation/confidence_interval.h"
#include "exec/executor.h"
#include "exec/query_spec.h"
#include "runtime/parallel_for.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace aqp {

/// Everything the error-estimation pipeline produces for one query, from
/// one scan.
struct SingleScanResult {
  /// θ(S), the approximate answer.
  double theta = 0.0;
  /// Bootstrap confidence interval around θ(S).
  ConfidenceInterval ci;
  /// Algorithm 1's verdict and evidence.
  DiagnosticReport diagnostic;
  /// Bootstrap replicates the CI was actually read from (K' <= K; K' < K
  /// when the run was cut short by a deadline/cancellation or lost tasks).
  int replicates_used = 0;
  /// Bootstrap replicates abandoned to exhausted failpoint retries (exact:
  /// derived from the identities of the lost fan-out units, not inferred
  /// from K - K'). 0 on fault-free runs; a deadline that stops the fan-out
  /// early does not count here.
  int replicates_lost = 0;
  /// True when a cancellation checkpoint stopped the fan-out early; the
  /// result is the graceful-degradation output (CI from the completed
  /// replicates).
  bool cancelled = false;
  /// False when a cancellation stopped the fan-out (the diagnostic units
  /// trail the bootstrap units, so some never ran) or when lost tasks left
  /// a size class below its 10-subsample floor; `diagnostic.accepted` stays
  /// false and the caller should treat the diagnostic as not run (not as a
  /// rejection).
  bool diagnostic_complete = true;
  /// What the fan-out region actually executed (chunk/retry/loss
  /// accounting); the engine surfaces this in QueryProfile.
  ParallelForStats run_stats;
};

/// The full §5.3.1 execution: ONE pass over the sample computes the
/// approximate answer, all K bootstrap replicates, and every diagnostic
/// subsample's plain estimate and bootstrap replicates — the in-memory
/// equivalent of a scan that fans out S1..S_K bootstrap weight columns plus
/// Da/Db/Dc diagnostic weight sets (paper Fig. 6(a)). With the defaults
/// (K = 100, k = 3 sizes × K' = 100 replicates) each passing row feeds 400
/// weight draws, exactly the paper's 400 weight columns.
///
/// Restricted to streaming aggregates (COUNT, SUM, AVG, VARIANCE, STDEV,
/// MIN, MAX); PERCENTILE needs the sort-based path and is rejected with
/// InvalidArgument — use BootstrapEstimator + RunDiagnosticConsolidated for
/// it (two logical passes, still one filter evaluation each).
///
/// Statistically equivalent to running BootstrapEstimator::Estimate plus
/// RunDiagnosticConsolidated with a bootstrap ξ of `diag_replicates`;
/// exists because it does the whole job in one pass and because it is the
/// faithful implementation of the paper's weight-column fan-out.
///
/// The weight-column fan-out is the paper's embarrassingly parallel
/// dimension (§5.3.2): the K bootstrap replicates split into chunks and
/// every diagnostic subsample is its own task, all scheduled on `runtime`.
/// Each replicate draws from the RNG stream keyed by its index (and each
/// subsample from its (size, j) substream), so a fixed incoming `rng` state
/// yields a bit-identical result at every thread count.
///
/// `prepared`, when non-null, supplies the filter+projection output for
/// (sample, query) computed elsewhere (e.g. a shared scan serving several
/// concurrent queries) and must be exactly what PrepareQuery(sample, query)
/// returns — PrepareQuery is deterministic and draws no randomness, so
/// substituting it cannot perturb any downstream RNG stream and the result
/// stays bit-identical to the self-scanning path.
Result<SingleScanResult> RunSingleScanPipeline(
    const Table& sample, const QuerySpec& query, int64_t population_rows,
    int bootstrap_replicates, int diag_replicates,
    const DiagnosticConfig& config, BootstrapCiMode mode, Rng& rng,
    const ExecRuntime& runtime = ExecRuntime(),
    const PreparedQuery* prepared = nullptr);

}  // namespace aqp

#endif  // AQP_DIAGNOSTICS_SINGLE_SCAN_H_
