#include "diagnostics/single_scan.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "exec/aggregate.h"
#include "exec/executor.h"
#include "exec/resample_kernel.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"
#include "sampling/poisson_resample.h"
#include "util/normal.h"
#include "util/stats.h"

namespace aqp {
namespace {

/// Stream-id spaces under the pipeline's base seed: bootstrap replicates
/// and diagnostic subsamples draw from disjoint substream hierarchies.
constexpr uint64_t kBootstrapStreamSpace = 0;
constexpr uint64_t kDiagnosticStreamSpace = 1;

/// Replicate accumulators for one resampled estimate group (a chunk of the
/// full-sample bootstrap replicates, or one diagnostic subsample's
/// replicates). Each replicate owns the RNG stream keyed by its global
/// index, so the group's results do not depend on which task ran it.
struct ReplicateGroup {
  std::vector<WeightedAccumulator> accumulators;
  std::vector<Rng> rngs;
  /// Rows of the underlying (sub)sample, for the COUNT/SUM size
  /// conditioning.
  int64_t base_rows = 0;
  /// Passing rows seen, to derive the non-passing count at finalize time.
  int64_t passing_rows = 0;

  ReplicateGroup(const RngStreamFactory& streams, uint64_t first_stream,
                 int replicates, AggregateKind kind, int64_t rows)
      : accumulators(static_cast<size_t>(replicates),
                     WeightedAccumulator(kind)),
        base_rows(rows) {
    rngs.reserve(static_cast<size_t>(replicates));
    for (int r = 0; r < replicates; ++r) {
      rngs.push_back(streams.Stream(first_stream + static_cast<uint64_t>(r)));
    }
  }

  /// Folds `count` passing rows (values may be nullptr for COUNT) into every
  /// replicate via the fused block kernel. Each replicate stream draws its
  /// weights in row order, exactly as a row-at-a-time loop would.
  void AddBlock(const double* values, int64_t count) {
    passing_rows += count;
    FusedPoissonAccumulate(values, count, rngs.data(), accumulators.data(),
                           static_cast<int64_t>(accumulators.size()));
  }

  /// Finalizes replicate r into `slots[r]` / `valid[r]` (slot-aligned, so
  /// callers can merge chunk results by global replicate index), applying
  /// the Hájek size conditioning for COUNT/SUM (see MultiResampleStreaming
  /// in exec/executor.cc). The conditioning draw comes from each replicate's
  /// own stream, after its weight draws.
  void FinalizeInto(AggregateKind kind, double scale_factor, double* slots,
                    char* valid) {
    bool size_scaled =
        kind == AggregateKind::kCount || kind == AggregateKind::kSum;
    double non_passing = static_cast<double>(base_rows - passing_rows);
    for (size_t r = 0; r < accumulators.size(); ++r) {
      Result<double> theta = accumulators[r].Finalize(scale_factor);
      if (!theta.ok()) continue;
      double value = *theta;
      if (size_scaled && base_rows > 0) {
        double resample_size =
            accumulators[r].weight_sum() +
            static_cast<double>(rngs[r].NextPoisson(non_passing));
        if (resample_size > 0.0) {
          value *= static_cast<double>(base_rows) / resample_size;
        }
      }
      slots[r] = value;
      valid[r] = 1;
    }
  }

  /// Compacted finalize (replicate order, failures dropped).
  std::vector<double> Finalize(AggregateKind kind, double scale_factor) {
    std::vector<double> slots(accumulators.size(), 0.0);
    std::vector<char> valid(accumulators.size(), 0);
    FinalizeInto(kind, scale_factor, slots.data(), valid.data());
    std::vector<double> thetas;
    thetas.reserve(accumulators.size());
    for (size_t r = 0; r < accumulators.size(); ++r) {
      if (valid[r]) thetas.push_back(slots[r]);
    }
    return thetas;
  }
};

/// CI readout from a replicate distribution (mirrors BootstrapEstimator).
Result<ConfidenceInterval> ReadCi(const std::vector<double>& replicates,
                                  double center, double alpha,
                                  BootstrapCiMode mode) {
  if (replicates.size() < 2) {
    return Status::FailedPrecondition(
        "bootstrap produced fewer than 2 valid replicates");
  }
  ConfidenceInterval ci;
  ci.center = center;
  if (mode == BootstrapCiMode::kNormalApprox) {
    ci.half_width = TwoSidedNormalCritical(alpha) * SampleStddev(replicates);
  } else {
    ci.half_width = SmallestSymmetricCoverRadius(replicates, center, alpha);
  }
  if (ci.half_width < 1e-9 * std::abs(ci.center)) ci.half_width = 0.0;
  return ci;
}

}  // namespace

Result<SingleScanResult> RunSingleScanPipeline(
    const Table& sample, const QuerySpec& query, int64_t population_rows,
    int bootstrap_replicates, int diag_replicates,
    const DiagnosticConfig& config, BootstrapCiMode mode, Rng& rng,
    const ExecRuntime& runtime, const PreparedQuery* shared_prepared) {
  if (bootstrap_replicates < 2 || diag_replicates < 2) {
    return Status::InvalidArgument("need >= 2 replicates");
  }
  if (!WeightedAccumulator::SupportsKind(query.aggregate.kind)) {
    return Status::InvalidArgument(
        std::string(AggregateKindName(query.aggregate.kind)) +
        " is not a streaming aggregate; use the two-pass pipeline");
  }
  int64_t n = sample.num_rows();
  Result<std::vector<int64_t>> sizes =
      diag_internal::ResolveSubsampleSizes(config, n);
  if (!sizes.ok()) return sizes.status();

  Tracer* tracer = runtime.tracer();

  // --- The single scan: filter + projection once (or adopt a shared
  // scan's output; see the header contract for `prepared`). ----------------
  Result<PreparedQuery> own_prepared = [&]() -> Result<PreparedQuery> {
    if (shared_prepared != nullptr) return PreparedQuery{};
    ScopedSpan span(tracer, "scan");
    return PrepareQuery(sample, query);
  }();
  if (!own_prepared.ok()) return own_prepared.status();
  const PreparedQuery& prepared =
      shared_prepared != nullptr ? *shared_prepared : *own_prepared;
  int64_t passing = prepared.num_passing();
  bool has_input = query.aggregate.input != nullptr;
  const double* values = has_input ? prepared.values.data() : nullptr;
  AggregateKind kind = query.aggregate.kind;

  // The plain answer needs no weights and no RNG: fold it serially.
  double sample_scale =
      static_cast<double>(population_rows) / static_cast<double>(n);
  Result<double> theta = [&] {
    ScopedSpan span(tracer, "aggregate");
    WeightedAccumulator plain(kind);
    plain.AddBlock(values, nullptr, passing);
    return plain.Finalize(sample_scale);
  }();
  if (!theta.ok()) return theta.status();

  // Per-size partition geometry: prepared.rows is ascending, so subsample
  // (i, j) owns the contiguous run of passing rows in [j*b_i, (j+1)*b_i).
  size_t num_sizes = sizes->size();
  std::vector<int> subsamples_per_size(num_sizes);
  std::vector<std::vector<size_t>> bounds(num_sizes);
  for (size_t i = 0; i < num_sizes; ++i) {
    int64_t b = (*sizes)[i];
    int p = static_cast<int>(std::min<int64_t>(config.num_subsamples, n / b));
    subsamples_per_size[i] = p;
    bounds[i].resize(static_cast<size_t>(p) + 1);
    if (prepared.all_rows) {
      // Dense (unfiltered): subsample j's passing run is [j*b, (j+1)*b).
      for (int j = 0; j <= p; ++j) {
        bounds[i][static_cast<size_t>(j)] =
            static_cast<size_t>(static_cast<int64_t>(j) * b);
      }
    } else {
      size_t cursor = 0;
      for (int j = 0; j < p; ++j) {
        bounds[i][static_cast<size_t>(j)] = cursor;
        int64_t row_end = (static_cast<int64_t>(j) + 1) * b;
        while (cursor < static_cast<size_t>(passing) &&
               prepared.rows[cursor] < row_end) {
          ++cursor;
        }
      }
      bounds[i][static_cast<size_t>(p)] = cursor;
    }
  }

  // --- The weight-column fan-out, as parallel tasks (§5.3.2). -------------
  // Every row feeds K bootstrap weights plus one diagnostic weight set per
  // size class — the paper's 400 weight columns. Replicate chunks and
  // subsamples are independent tasks; all randomness is keyed by replicate
  // or (size, subsample) index, never by thread.
  RngStreamFactory streams(rng);
  RngStreamFactory bootstrap_streams = streams.Substream(kBootstrapStreamSpace);
  RngStreamFactory diag_streams = streams.Substream(kDiagnosticStreamSpace);

  std::vector<double> bootstrap_slots(
      static_cast<size_t>(bootstrap_replicates), 0.0);
  std::vector<char> bootstrap_valid(static_cast<size_t>(bootstrap_replicates),
                                    0);
  struct SubsampleOutcome {
    double theta = 0.0;
    double half_width = 0.0;
    bool valid = false;
  };
  std::vector<std::vector<SubsampleOutcome>> outcomes(num_sizes);
  for (size_t i = 0; i < num_sizes; ++i) {
    outcomes[i].resize(static_cast<size_t>(subsamples_per_size[i]));
  }

  std::vector<std::function<void()>> units;
  // Bootstrap replicate chunks over the full passing set (largest units
  // first, so the dynamic scheduler balances them). Unit u owns replicates
  // [u*kReplicateGrain, min(K, (u+1)*kReplicateGrain)), the same geometry
  // as the two-phase multi-resample fan-out.
  for (int64_t kb = 0; kb < bootstrap_replicates; kb += kReplicateGrain) {
    int64_t ke =
        std::min<int64_t>(kb + kReplicateGrain, bootstrap_replicates);
    units.push_back([&, kb, ke] {
      ScopedSpan span(tracer, "resample");
      ReplicateGroup group(bootstrap_streams, static_cast<uint64_t>(kb),
                           static_cast<int>(ke - kb), kind, n);
      group.AddBlock(values, passing);
      group.FinalizeInto(kind, sample_scale,
                         bootstrap_slots.data() + kb,
                         bootstrap_valid.data() + kb);
    });
  }
  // One unit per diagnostic subsample: its plain estimate plus its K'
  // replicates, over its contiguous slice of the prepared data.
  for (size_t i = 0; i < num_sizes; ++i) {
    int64_t b = (*sizes)[i];
    double subsample_scale =
        static_cast<double>(population_rows) / static_cast<double>(b);
    RngStreamFactory size_streams = diag_streams.Substream(i);
    for (int j = 0; j < subsamples_per_size[i]; ++j) {
      units.push_back([&, i, j, b, subsample_scale, size_streams] {
        ScopedSpan span(tracer, "diagnostic");
        size_t first = bounds[i][static_cast<size_t>(j)];
        size_t last = bounds[i][static_cast<size_t>(j) + 1];
        WeightedAccumulator sub_plain(kind);
        RngStreamFactory sub_streams =
            size_streams.Substream(static_cast<uint64_t>(j));
        ReplicateGroup group(sub_streams, 0, diag_replicates, kind, b);
        const double* slice = values == nullptr ? nullptr : values + first;
        int64_t slice_len = static_cast<int64_t>(last - first);
        sub_plain.AddBlock(slice, nullptr, slice_len);
        group.AddBlock(slice, slice_len);
        Result<double> sub_theta = sub_plain.Finalize(subsample_scale);
        if (!sub_theta.ok()) return;  // Degenerate subsample.
        std::vector<double> replicate_thetas =
            group.Finalize(kind, subsample_scale);
        Result<ConfidenceInterval> sub_ci =
            ReadCi(replicate_thetas, *sub_theta, config.alpha, mode);
        if (!sub_ci.ok()) return;
        SubsampleOutcome& out = outcomes[i][static_cast<size_t>(j)];
        out.theta = *sub_theta;
        out.half_width = sub_ci->half_width;
        out.valid = true;
      });
    }
  }

  // The bootstrap chunks occupy the low unit indices and ParallelFor claims
  // chunks in ascending order, so when a deadline trips mid-run the
  // replicates (which the degraded CI needs) complete preferentially over
  // the diagnostic subsamples.
  ParallelForStats run = ParallelFor(
      runtime, 0, static_cast<int64_t>(units.size()), 1,
      [&](int64_t ub, int64_t ue) {
        for (int64_t u = ub; u < ue; ++u) {
          units[static_cast<size_t>(u)]();
        }
      });
  // --- Finalize: answer + CI. ----------------------------------------------
  SingleScanResult result;
  result.theta = *theta;
  result.cancelled = run.cancelled;
  result.run_stats = run;
  // Bootstrap replicate chunks sit at the low unit indices; a lost unit in
  // that range maps back to exactly which replicates died. Lost diagnostic
  // units surface through diagnostic_complete instead.
  int64_t num_bootstrap_units =
      (bootstrap_replicates + kReplicateGrain - 1) / kReplicateGrain;
  for (int64_t u : run.lost_units) {
    if (u >= num_bootstrap_units) continue;
    int64_t kb = u * kReplicateGrain;
    int64_t ke =
        std::min<int64_t>(kb + kReplicateGrain, bootstrap_replicates);
    result.replicates_lost += static_cast<int>(ke - kb);
  }
  std::vector<double> bootstrap_thetas;
  bootstrap_thetas.reserve(bootstrap_slots.size());
  for (size_t k = 0; k < bootstrap_slots.size(); ++k) {
    if (bootstrap_valid[k]) bootstrap_thetas.push_back(bootstrap_slots[k]);
  }
  result.replicates_used = static_cast<int>(bootstrap_thetas.size());
  Result<ConfidenceInterval> ci = [&] {
    ScopedSpan span(tracer, "ci");
    return ReadCi(bootstrap_thetas, *theta, config.alpha, mode);
  }();
  if (!ci.ok()) {
    // Not even 2 replicates finished: no error bars are possible. Surface
    // the cancellation cause when that is what emptied the run.
    Status cancelled = runtime.token().CheckCancelled("single-scan pipeline");
    if (!cancelled.ok()) return cancelled;
    return ci.status();
  }
  result.ci = *ci;
  if (run.cancelled) {
    // The trip left the tail of the unit list unrun, and that tail is
    // diagnostic work: the verdict is not run. One read from whichever
    // subsamples finished in time would depend on scheduling.
    result.diagnostic_complete = false;
    return result;
  }

  // --- Finalize: diagnostic stats per size. --------------------------------
  // Covers the remainder of the pipeline (per-size stats + Algorithm 1's
  // acceptance criteria), which is all diagnostic work.
  ScopedSpan diag_span(tracer, "diagnostic");
  result.diagnostic.per_size.reserve(num_sizes);
  for (size_t i = 0; i < num_sizes; ++i) {
    int64_t b = (*sizes)[i];
    std::vector<double> thetas;
    std::vector<double> half_widths;
    for (int j = 0; j < subsamples_per_size[i]; ++j) {
      result.diagnostic.total_subqueries += 1;
      const SubsampleOutcome& out = outcomes[i][static_cast<size_t>(j)];
      if (!out.valid) continue;
      thetas.push_back(out.theta);
      half_widths.push_back(out.half_width);
    }
    if (thetas.size() < 10) {
      if (run.chunks_lost > 0) {
        // Lost work starved this size: the diagnostic verdict is
        // unavailable, but the answer + CI above still stand.
        result.diagnostic_complete = false;
        result.diagnostic.accepted = false;
        return result;
      }
      return Status::FailedPrecondition(
          "too few subsamples produced values at size " + std::to_string(b));
    }
    result.diagnostic.per_size.push_back(diag_internal::ComputeSizeStats(
        thetas, half_widths, *theta, b, config));
  }
  diag_internal::ApplyAcceptanceCriteria(result.diagnostic, config);
  return result;
}

}  // namespace aqp
