#ifndef AQP_CORE_ENGINE_H_
#define AQP_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "diagnostics/diagnostic.h"
#include "diagnostics/single_scan.h"
#include "estimation/bootstrap.h"
#include "estimation/closed_form.h"
#include "estimation/confidence_interval.h"
#include "estimation/large_deviation.h"
#include "exec/executor.h"
#include "exec/query_spec.h"
#include "exec/shared_scan.h"
#include "obs/query_profile.h"
#include "runtime/failpoint.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sampling/sampler.h"
#include "sampling/stratified.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "util/random.h"
#include "util/status.h"

namespace aqp {

class Gauge;  // obs/metrics.h

/// How the engine reacts when the diagnostic rejects error estimation for a
/// query (the "fall back to slower, more accurate solutions" spectrum of
/// paper §1).
enum class FallbackPolicy {
  /// Re-execute the query exactly on the full data (always correct; slow).
  kExactExecution,
  /// Use conservative large-deviation bounds when available, else exact.
  kLargeDeviation,
  /// Return the (diagnosed-unreliable) estimate anyway, flagged.
  kNone,
};

/// Which procedure produced the returned error bars.
enum class EstimationMethod {
  kClosedForm,
  kBootstrap,
  kLargeDeviation,
  kExact,  ///< No error bars needed: exact answer.
};

const char* EstimationMethodName(EstimationMethod method);

/// Engine configuration. Defaults follow the paper: alpha = 0.95, K = 100
/// bootstrap replicates, diagnostic at p = 100, k = 3.
struct EngineOptions {
  double alpha = 0.95;
  int bootstrap_replicates = 100;
  DiagnosticConfig diagnostic;
  /// Running the diagnostic can be disabled (e.g. for microbenchmarks).
  bool run_diagnostic = true;
  FallbackPolicy fallback = FallbackPolicy::kExactExecution;
  /// Sample size targeted when auto-creating samples.
  int64_t default_sample_rows = 100000;
  /// Throughput model for time-bounded execution: rows the engine can
  /// process per second for a typical query (pipeline included). Calibrate
  /// per deployment; the default is conservative for one core. This is only
  /// the *initial* estimate — every completed time-bounded query feeds its
  /// observed wall-clock throughput back into an EWMA (see
  /// `throughput_ewma_alpha`), so a miscalibrated model self-corrects.
  double rows_per_second = 5e6;
  /// Weight of the newest observation in the throughput EWMA (0 disables
  /// feedback and trusts the static calibration forever).
  double throughput_ewma_alpha = 0.3;
  uint64_t seed = 42;
  /// Workers in the engine-owned thread pool. 0 means hardware concurrency;
  /// 1 runs everything on the calling thread (no pool). The pool is shared
  /// by every query this engine executes, so concurrent callers stay inside
  /// one bounded runtime.
  int num_threads = 0;
  /// Bound on the fan-out of any single parallel region (the §5.3.2 knob:
  /// past the task-overhead sweet spot, more parallelism costs latency).
  /// 0 means "as wide as the pool". Results are seed-deterministic at every
  /// setting (per-task RNG streams).
  int max_parallelism = 0;
  /// Per-query span tracing: each query gets a Tracer, its ApproxResult's
  /// profile carries phase timings and a Chrome trace. Off by default — the
  /// disabled path costs one branch per instrumentation point and reads no
  /// clocks, and tracing never touches the RNG, so results are bit-identical
  /// either way.
  bool enable_tracing = false;
  /// Optional fault injection threaded into every parallel region the engine
  /// drives (testing/chaos only). Must outlive the engine. Injected chunk
  /// failures retry deterministically; `QueryProfile::failpoint_retries`
  /// reports how many fired.
  const FailpointRegistry* failpoints = nullptr;
};

/// An approximate answer with error bars and its provenance.
struct ApproxResult {
  /// The estimate (θ(S), or θ(D) if execution fell back to exact).
  double estimate = 0.0;
  ConfidenceInterval ci;
  EstimationMethod method = EstimationMethod::kBootstrap;
  bool diagnostic_ran = false;
  /// True if the diagnostic accepted the error estimate (meaningful only
  /// when `diagnostic_ran`).
  bool diagnostic_ok = false;
  /// True if the engine discarded the sample estimate per FallbackPolicy.
  bool fell_back = false;
  int64_t sample_rows = 0;
  int64_t population_rows = 0;
  DiagnosticReport diagnostic;
  /// True when the query's wall-clock deadline expired during execution and
  /// the engine degraded gracefully instead of overrunning: the CI (if any)
  /// was read from the replicates completed by then, and no post-deadline
  /// work (diagnosis, exact fallback) was started.
  bool deadline_hit = false;
  /// Bootstrap replicates the CI was read from (0 for closed-form/exact
  /// results; K' < K after a deadline hit mid-bootstrap).
  int replicates_used = 0;
  /// Wall-clock seconds the query took (set by ExecuteWithTimeBound; 0
  /// elsewhere). Compare against the budget to audit enforcement.
  double elapsed_seconds = 0.0;
  /// How the serving layer's overload policy treated this query (kNone for
  /// direct engine calls; set by AqpServer, mirrored in `profile`).
  ShedStage shed_stage = ShedStage::kNone;
  /// Execution report: phase timings + Chrome trace when tracing is on,
  /// replicate/chunk/retry accounting and the diagnostic verdict always.
  QueryProfile profile;

  /// Relative half-width of the error bars (half_width / |estimate|).
  double RelativeError() const {
    return estimate == 0.0 ? 0.0 : ci.half_width / std::abs(estimate);
  }
};

/// The end-to-end AQP pipeline of paper Fig. 5: samples + approximate
/// execution + error estimation + runtime diagnostics + fallback.
///
/// Example:
///   AqpEngine engine;
///   engine.RegisterTable(sessions);                 // full data D
///   engine.CreateSample("sessions", 100000);        // sample S
///   QuerySpec q = ...;                              // AVG(time) WHERE ...
///   Result<ApproxResult> r = engine.ExecuteApproximate(q);
class AqpEngine {
 public:
  explicit AqpEngine(EngineOptions options = {});

  /// Registers the full table D (used for exact fallback and as sampling
  /// source).
  [[nodiscard]] Status RegisterTable(std::shared_ptr<const Table> table);

  /// Draws and stores a uniform sample of `rows` rows of `table`.
  [[nodiscard]] Status CreateSample(const std::string& table, int64_t rows);

  /// Builds and stores a stratified sample of `table` on string column
  /// `column` with at most `cap` rows per distinct value. At query time,
  /// equality filters on `column` are answered from the matching stratum
  /// (BlinkDB's "select the best sample at runtime", paper §6) — rare
  /// segments keep full-resolution error bars.
  [[nodiscard]] Status CreateStratifiedSample(const std::string& table,
                                const std::string& column, int64_t cap);

  /// Runs `query` approximately: executes on the best sample, estimates
  /// error (closed form when applicable, else bootstrap), diagnoses the
  /// estimate, and applies the fallback policy on rejection.
  [[nodiscard]] Result<ApproxResult> ExecuteApproximate(const QuerySpec& query);

  /// Per-request execution knobs negotiated by a serving layer (src/server):
  /// everything one served request may override without touching shared
  /// engine state.
  struct ServeOptions {
    /// Identifies the request's private RNG stream: the effective generator
    /// is the stream keyed by (EngineOptions::seed, rng_seed), so a served
    /// result is a pure function of (engine config, data, query, rng_seed) —
    /// bit-identical to a direct ExecuteServed call with the same id, at any
    /// thread count, regardless of what other requests run concurrently.
    uint64_t rng_seed = 0;
    /// Cancellation/deadline token for this request (session disconnect and
    /// SLO deadline). When it can cancel, the pipeline degrades instead of
    /// overrunning and never starts the unboundable exact fallback.
    CancellationToken token;
    /// Bootstrap replicate override (the admission controller's degrade
    /// stage); 0 keeps EngineOptions::bootstrap_replicates.
    int replicates = 0;
    /// Cross-request shared-scan scheduler (scan consolidation across
    /// concurrent queries). Null — the default — prepares privately, making
    /// the served path byte-identical to pre-sharing behavior. Sharing only
    /// substitutes the deterministic, RNG-free PrepareQuery output, so a
    /// request's result stays a pure function of its rng_seed either way.
    ScanScheduler* shared_scans = nullptr;
  };

  /// Thread-safe served entry point: runs the ExecuteApproximate pipeline
  /// with a per-request RNG stream and an explicit token, touching no
  /// mutable engine state — safe for any number of concurrent callers
  /// (which all share the engine's one bounded pool). Register tables and
  /// samples before serving; catalog mutation during serving is not
  /// supported.
  [[nodiscard]] Result<ApproxResult> ExecuteServed(const QuerySpec& query,
                                                   const ServeOptions& serve) const;

  /// Sample rows `query` would execute over after runtime sample selection —
  /// the admission controller's per-request work estimate. Falls back to
  /// `EngineOptions::default_sample_rows` when no sample matches.
  [[nodiscard]] int64_t PredictedWorkRows(const QuerySpec& query) const;

  /// Runs `query` exactly on the registered full table.
  [[nodiscard]] Result<double> ExecuteExact(const QuerySpec& query) const;

  /// Parses and runs a SQL statement approximately. GROUP BY statements are
  /// rejected here — use ExecuteApproximateGroupBySql. `udfs` may be null.
  [[nodiscard]] Result<ApproxResult> ExecuteApproximateSql(const std::string& sql,
                                             const UdfRegistry* udfs = nullptr);

  /// One group's approximate answer in a GROUP BY execution.
  struct GroupApproxResult {
    std::string group;
    ApproxResult result;
  };

  /// Approximate GROUP BY: each group is treated as an independent query
  /// θ_g with its own error bars and diagnostic (paper §2.1: "when a query
  /// produces multiple results, we treat each result as a separate query").
  /// Groups whose filter keeps fewer than `min_group_rows` sample rows are
  /// skipped (their estimates would be meaningless).
  [[nodiscard]] Result<std::vector<GroupApproxResult>> ExecuteApproximateGroupBy(
      const QuerySpec& query, const std::string& group_column,
      int64_t min_group_rows = 100);

  /// Parses and runs a GROUP BY SQL statement approximately.
  [[nodiscard]] Result<std::vector<GroupApproxResult>> ExecuteApproximateGroupBySql(
      const std::string& sql, const UdfRegistry* udfs = nullptr);

  /// Error-bounded execution (the BlinkDB-style contract the paper builds
  /// on): picks the smallest stored sample whose estimated error bars meet
  /// `target_relative_error`, then runs the full diagnosed pipeline on it.
  /// Falls back per FallbackPolicy when no sample is accurate enough or the
  /// diagnostic rejects.
  [[nodiscard]] Result<ApproxResult> ExecuteWithErrorBound(const QuerySpec& query,
                                             double target_relative_error);

  /// Time-bounded execution (BlinkDB's other constraint type: "queries with
  /// response time ... constraints"): picks the largest stored sample whose
  /// predicted scan cost fits `budget_seconds` under the engine's current
  /// throughput estimate (EWMA-corrected `rows_per_second`), then runs the
  /// diagnosed pipeline on it *under wall-clock enforcement*: a
  /// deadline-carrying CancellationToken is threaded through every parallel
  /// region, and when the deadline fires the engine returns a degraded
  /// result instead of overrunning: `deadline_hit = true`, diagnosis not
  /// run, and a CI from the K' completed replicates — K' < K when the trip
  /// lands mid-bootstrap, K' = K when it lands after the bootstrap units.
  /// Returns kDeadlineExceeded only when not even a minimal answer (theta +
  /// 2 replicates) finished in time. Falls back to the smallest sample when
  /// none fits the budget.
  ///
  /// Time-bounded queries never trigger exact re-execution: ExecuteExact
  /// scans the full table without polling the token, so it cannot honor the
  /// budget. When the diagnostic rejects under a time bound the engine
  /// returns the flagged estimate (`diagnostic_ok = false`,
  /// `fell_back = false`) regardless of FallbackPolicy.
  [[nodiscard]] Result<ApproxResult> ExecuteWithTimeBound(const QuerySpec& query,
                                            double budget_seconds);

  /// The engine's current throughput estimate (rows/second): starts at
  /// `EngineOptions::rows_per_second` and tracks observed wall-clock
  /// throughput of completed time-bounded queries via EWMA.
  double observed_rows_per_second() const { return observed_rows_per_second_; }

  /// Persists every uniform sample of every table to `directory` (one
  /// binary table file per sample plus a manifest), so samples survive
  /// restarts — sampling terabytes is the expensive step in production.
  [[nodiscard]] Status SaveSamples(const std::string& directory) const;

  /// Loads samples previously written by SaveSamples. Tables referenced by
  /// the manifest must already be registered (for population row counts).
  [[nodiscard]] Status LoadSamples(const std::string& directory);

  const Catalog& catalog() const { return catalog_; }
  const SampleStore& samples() const { return samples_; }
  const EngineOptions& options() const { return options_; }
  /// The engine's bounded execution runtime (null pool when num_threads=1).
  const ExecRuntime& runtime() const { return runtime_; }

 private:
  /// The sample a query runs on, after runtime sample selection.
  struct ResolvedSample {
    /// Materialized data to execute against (a uniform sample, or one
    /// stratum of a stratified sample).
    std::shared_ptr<const Table> data;
    int64_t population_rows = 0;
    /// Query with any filter conjunct already answered by the sample choice
    /// removed (e.g. the `city = 'NYC'` equality when the NYC stratum was
    /// selected).
    QuerySpec effective_query;
  };

  /// Picks the best stored sample for `query`: a stratified stratum when an
  /// equality filter matches a stratified column, else the default uniform
  /// sample.
  [[nodiscard]] Result<ResolvedSample> ResolveSample(const QuerySpec& query) const;

  /// The ExecuteApproximate pipeline against an explicit generator and
  /// runtime. All engine state it touches is read-only, so independent
  /// queries (e.g. the groups of a GROUP BY, or concurrent served requests)
  /// can run it concurrently, each with its own RNG stream. The runtime
  /// carries the query's cancellation token: once it trips, the pipeline
  /// degrades (partial-replicate CI, no diagnosis, no exact fallback)
  /// rather than starting new work. `replicates` is the bootstrap K for
  /// this query (the serving layer's degrade stage passes a shrunk count).
  /// `shared_scans`, when non-null, lets the single-scan branch adopt a
  /// PreparedQuery from a cross-request scan group instead of scanning
  /// privately (see ServeOptions::shared_scans).
  [[nodiscard]] Result<ApproxResult> ExecuteApproximateImpl(const QuerySpec& query,
                                              Rng& rng,
                                              const ExecRuntime& runtime,
                                              int replicates,
                                              ScanScheduler* shared_scans =
                                                  nullptr) const;

  /// The pipeline body behind ExecuteApproximateImpl. Impl is the tracing
  /// wrapper: when `EngineOptions::enable_tracing` is set it owns a
  /// per-query Tracer, roots a "query" span around this body, and fills the
  /// result's profile timings; the body itself populates the profile's
  /// always-on counters.
  [[nodiscard]] Result<ApproxResult> ExecuteApproximatePipeline(
      const QuerySpec& query, Rng& rng, const ExecRuntime& runtime,
      int replicates, ScanScheduler* shared_scans = nullptr) const;

  [[nodiscard]] Result<ApproxResult> FallBack(const QuerySpec& query, ApproxResult result,
                                Rng& rng) const;

  EngineOptions options_;
  Catalog catalog_;
  SampleStore samples_;
  /// Stratified samples per table (at most one per (table, column)).
  std::unordered_map<std::string, std::vector<StratifiedSample>> stratified_;
  ClosedFormEstimator closed_form_;
  BootstrapEstimator bootstrap_;
  Rng rng_;
  /// Engine-owned bounded-parallelism runtime (§5.3.2): one fixed pool
  /// shared by every hot path this engine drives.
  std::unique_ptr<ThreadPool> pool_;
  ExecRuntime runtime_;
  /// EWMA throughput estimate feeding time-bounded sample selection.
  double observed_rows_per_second_ = 0.0;
  /// Default-registry mirror of the EWMA ("engine.throughput.
  /// ewma_rows_per_second"), the load signal the serving layer's admission
  /// control reads through LoadSnapshot. Shared across engines by name, like
  /// the pool's queue-depth gauge.
  Gauge* ewma_throughput_gauge_ = nullptr;
};

}  // namespace aqp

#endif  // AQP_CORE_ENGINE_H_
