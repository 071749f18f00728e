#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "core/self_check.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace iq {
namespace {

/// Cached pointers into the global registry; all increments are lock-free.
struct EngineMetrics {
  Histogram* min_cost_nanos;        // end-to-end MinCost() latency
  Histogram* max_hit_nanos;         // end-to-end MaxHit() latency
  Histogram* apply_strategy_nanos;  // end-to-end ApplyStrategy() latency
  Histogram* solve_batch_nanos;     // end-to-end SolveBatch() latency
  Counter* batch_items;             // improvement queries solved via batches
  Counter* queries_reranked;        // maintenance re-ranks during Apply
  Counter* queries_reused;          // cached assignments kept during Apply
  Counter* affected_subspaces;      // subdomains touched during Apply
  Gauge* epoch;                     // currently published epoch id

  static EngineMetrics& Get() {
    static EngineMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      EngineMetrics em;
      em.min_cost_nanos = reg.GetHistogram("iq.engine.min_cost_nanos");
      em.max_hit_nanos = reg.GetHistogram("iq.engine.max_hit_nanos");
      em.apply_strategy_nanos =
          reg.GetHistogram("iq.engine.apply_strategy_nanos");
      em.solve_batch_nanos = reg.GetHistogram("iq.engine.solve_batch_nanos");
      em.batch_items = reg.GetCounter("iq.engine.batch_items");
      em.queries_reranked = reg.GetCounter("iq.engine.apply.queries_reranked");
      em.queries_reused = reg.GetCounter("iq.engine.apply.queries_reused");
      em.affected_subspaces =
          reg.GetCounter("iq.engine.apply.affected_subspaces");
      em.epoch = reg.GetGauge("iq.index.epoch");
      return em;
    }();
    return m;
  }
};

/// Solves one improvement query against a read-only (index, view, queries)
/// snapshot. Shared by the single-target MinCost/MaxHit entry points and the
/// SolveBatch workers; takes raw pointers into a pinned epoch, so workers
/// run it with no lock at all — the pin keeps the epoch immutable.
Result<IqResult> SolveOne(const SubdomainIndex* index,
                          const FunctionView* view, const QuerySet* queries,
                          const BatchItem& item, IqScheme scheme) {
  IQ_ASSIGN_OR_RETURN(IqContext ctx,
                      IqContext::FromIndex(index, item.target));
  const bool min_cost = item.kind == BatchItem::Kind::kMinCost;
  switch (scheme) {
    case IqScheme::kEfficient: {
      EseEvaluator ese(index, item.target);
      return min_cost ? MinCostIq(ctx, &ese, item.tau, item.options)
                      : MaxHitIq(ctx, &ese, item.beta, item.options);
    }
    case IqScheme::kRta: {
      RtaStrategyEvaluator rta(view, queries, item.target);
      return min_cost ? MinCostIq(ctx, &rta, item.tau, item.options)
                      : MaxHitIq(ctx, &rta, item.beta, item.options);
    }
    case IqScheme::kGreedy: {
      EseEvaluator ese(index, item.target);
      return min_cost ? GreedyMinCost(ctx, &ese, item.tau, item.options)
                      : GreedyMaxHit(ctx, &ese, item.beta, item.options);
    }
    case IqScheme::kRandom: {
      EseEvaluator ese(index, item.target);
      return min_cost ? RandomMinCost(ctx, &ese, item.tau, item.options)
                      : RandomMaxHit(ctx, &ese, item.beta, item.options);
    }
    case IqScheme::kExhaustive: {
      ExhaustiveOptions ex;
      ex.iq = item.options;
      return min_cost ? ExhaustiveMinCost(ctx, item.tau, ex)
                      : ExhaustiveMaxHit(ctx, item.beta, ex);
    }
  }
  return Status::InvalidArgument("unknown scheme");
}

/// Flight-recorder tail of every solve path: one solve_end event carrying
/// the per-call EvalBreakdown (success) or the failure status (error), plus
/// the epoch the solve was pinned to.
void RecordSolveEnd(const char* op, IqScheme scheme, int target,
                    const Result<IqResult>& r, double seconds, uint64_t epoch,
                    uint64_t trace_id) {
  Event e;
  if (r.ok()) {
    const EvalBreakdown& b = r->breakdown;
    e = EventLog::SolveEnd(op, IqSchemeName(scheme), target, /*ok=*/true,
                           r->cost, r->hits_before, r->hits_after,
                           b.iterations, b.candidates_generated,
                           b.candidates_evaluated, b.queries_rescored,
                           b.queries_reused, seconds, epoch);
  } else {
    e = EventLog::SolveEnd(op, IqSchemeName(scheme), target, /*ok=*/false,
                           0.0, 0, 0, 0, 0, 0, 0, 0, seconds, epoch);
    e.note = r.status().ToString();
  }
  e.trace_id = trace_id;
  EventLog::Global().Record(std::move(e));
}

/// SolveStart stamped with the solve's causal trace id, so a slow-trace id
/// from /tracez greps straight into the flight-recorder JSONL.
void RecordSolveStart(const char* op, IqScheme scheme, int target, int tau,
                      double beta, uint64_t epoch, uint64_t trace_id) {
  Event e =
      EventLog::SolveStart(op, IqSchemeName(scheme), target, tau, beta, epoch);
  e.trace_id = trace_id;
  EventLog::Global().Record(std::move(e));
}

/// Every number the engine stores must be finite. A NaN or infinite weight,
/// attribute or strategy component would otherwise trip an internal check
/// (an infinite weight aborts in opt/bounds) or silently poison every
/// ranking it touches (a NaN score never compares below a threshold).
Status CheckFinite(const Vec& v, const char* what) {
  for (double x : v) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument(std::string(what) + " must be finite");
    }
  }
  return Status::Ok();
}

/// The object's rank under query q, computed against one pinned epoch (the
/// snapshot analogue of the old mutex-guarded helper).
Result<int> RankUnderQueryOn(const EpochHandle& snap, int object, int q) {
  const Dataset& dataset = snap.dataset();
  const QuerySet& queries = snap.queries();
  if (object < 0 || object >= dataset.size() || !dataset.is_active(object)) {
    return Status::InvalidArgument("object is not active");
  }
  if (q < 0 || q >= queries.size() || !queries.is_active(q)) {
    return Status::InvalidArgument("query is not active");
  }
  const Vec& w = snap.index().aug_weights(q);
  double score = snap.view().Score(object, w);
  int rank = 1;
  for (int i = 0; i < dataset.size(); ++i) {
    if (i == object || !dataset.is_active(i)) continue;
    double s = snap.view().Score(i, w);  // iq-lint: allow(raw-scoring-loop)
    if (s < score || (s == score && i < object)) ++rank;
  }
  return rank;
}

Result<std::vector<std::pair<int, int>>> ReverseKRanksOn(
    const EpochHandle& snap, int object, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const QuerySet& queries = snap.queries();
  std::vector<std::pair<int, int>> ranked;  // (rank, query) for sorting
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    IQ_ASSIGN_OR_RETURN(int rank, RankUnderQueryOn(snap, object, q));
    ranked.emplace_back(rank, q);
  }
  std::sort(ranked.begin(), ranked.end());
  if (static_cast<int>(ranked.size()) > k) {
    ranked.resize(static_cast<size_t>(k));
  }
  std::vector<std::pair<int, int>> out;
  out.reserve(ranked.size());
  for (const auto& [rank, q] : ranked) out.emplace_back(q, rank);
  return out;
}

}  // namespace

const char* IqSchemeName(IqScheme scheme) {
  switch (scheme) {
    case IqScheme::kEfficient:
      return "Efficient-IQ";
    case IqScheme::kRta:
      return "RTA-IQ";
    case IqScheme::kGreedy:
      return "Greedy";
    case IqScheme::kRandom:
      return "Random";
    case IqScheme::kExhaustive:
      return "Exhaustive";
  }
  return "?";
}

Result<IqEngine> IqEngine::Create(Dataset dataset, LinearForm form,
                                  std::vector<TopKQuery> queries,
                                  EngineOptions options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  for (int i = 0; i < dataset.size(); ++i) {
    if (!dataset.is_active(i)) continue;
    IQ_RETURN_IF_ERROR(CheckFinite(dataset.attrs(i), "object attributes"));
  }
  for (const TopKQuery& q : queries) {
    IQ_RETURN_IF_ERROR(CheckFinite(q.weights, "query weights"));
  }
  auto dataset_ptr = std::make_shared<Dataset>(std::move(dataset));
  auto queries_ptr = std::make_shared<QuerySet>(form.num_weights());
  for (TopKQuery& q : queries) {
    auto added = queries_ptr->Add(std::move(q));
    if (!added.ok()) return added.status();
  }
  auto view_ptr =
      std::make_shared<FunctionView>(dataset_ptr.get(), std::move(form));
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 0) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  options.index.pool = pool.get();
  // Engine epochs start at 1 (0 is reserved for standalone indexes), so a
  // scraped iq.index.epoch gauge is nonzero from the first build on.
  options.index.epoch = 1;
  IQ_ASSIGN_OR_RETURN(
      SubdomainIndex index,
      SubdomainIndex::Build(view_ptr.get(), queries_ptr.get(),
                            options.index));
  std::unique_ptr<MetricsExporter> exporter;
  if (options.exporter_port >= 0) {
    exporter = std::make_unique<MetricsExporter>();
    IQ_RETURN_IF_ERROR(exporter->Start(options.exporter_port));
  }
  if (options.slow_trace_nanos > 0) {
    // Tail-based capture (DESIGN.md §14): configure the process-global
    // collector and switch span recording on. Like the metrics registry,
    // the collector is process-wide — the last engine configured wins,
    // which is the same sharing model /metrics already has.
    TraceTailConfig tail;
    tail.slow_trace_nanos = options.slow_trace_nanos;
    tail.keep_first_n = options.slow_trace_keep_first;
    tail.max_retained =
        static_cast<size_t>(std::max(1, options.slow_trace_max_retained));
    TraceCollector::Global().ConfigureTailCapture(tail);
    TraceCollector::Global().SetEnabled(true);
  }
  auto snapshot = std::make_shared<const EpochSnapshot>(
      /*epoch_arg=*/1, dataset_ptr, queries_ptr, view_ptr,
      std::make_shared<const SubdomainIndex>(std::move(index)));
  return IqEngine(std::move(snapshot), std::move(pool), std::move(exporter),
                  std::move(options.event_dump_path));
}

IqEngine::IqEngine(std::shared_ptr<const EpochSnapshot> snapshot,
                   std::unique_ptr<ThreadPool> pool,
                   std::unique_ptr<MetricsExporter> exporter,
                   std::string event_dump_path)
    : pool_(std::move(pool)),
      exporter_(std::move(exporter)),
      event_dump_path_(std::move(event_dump_path)) {
  EngineMetrics::Get().epoch->Set(static_cast<int64_t>(snapshot->epoch));
  epoch_.store(std::move(snapshot), std::memory_order_release);
}

IqEngine::IqEngine(IqEngine&& other) noexcept {
  // Lock the source: a move racing a writer on `other` must wait for that
  // writer instead of tearing its state out from under it. Readers are
  // unaffected — their pinned epochs survive the move. (Destroying a
  // locked-by-others engine is still the caller's bug, as with any object.)
  MutexLock lock(&other.mu_);
  epoch_.store(other.epoch_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
  pool_ = std::move(other.pool_);
  exporter_ = std::move(other.exporter_);
  event_dump_path_ = std::move(other.event_dump_path_);
  apply_ticket_ = other.apply_ticket_;
}

IqEngine& IqEngine::operator=(IqEngine&& other) noexcept {
  if (this != &other) {
    // Both engines' writer state moves, so both engine-rank locks must be
    // held. MutexLockPair imposes address order internally (two threads
    // cross-assigning cannot deadlock) and is the only path the Debug
    // deadlock detector admits for a same-rank double acquisition —
    // hand-rolling the ordering here again would abort under Debug.
    MutexLockPair lock(&mu_, &other.mu_);
    epoch_.store(other.epoch_.exchange(nullptr, std::memory_order_acq_rel),
                 std::memory_order_release);
    pool_ = std::move(other.pool_);
    exporter_ = std::move(other.exporter_);
    event_dump_path_ = std::move(other.event_dump_path_);
    apply_ticket_ = other.apply_ticket_;
  }
  return *this;
}

int IqEngine::HitCount(int object) const {
  EpochHandle snap = Snapshot();
  return snap.index().HitCount(object);
}

std::vector<int> IqEngine::HitSet(int object) const {
  EpochHandle snap = Snapshot();
  return snap.index().HitSet(object);
}

std::vector<int> IqEngine::ReverseTopK(int object) const {
  EpochHandle snap = Snapshot();
  return snap.index().HitSet(object);
}

Result<std::vector<ScoredObject>> IqEngine::TopK(const Vec& weights,
                                                 int k) const {
  IQ_TRACE_SCOPE_ARG("IqEngine::TopK", k);
  EpochHandle snap = Snapshot();
  const Dataset& dataset = snap.dataset();
  const FunctionView& view = snap.view();
  if (static_cast<int>(weights.size()) != view.form().num_weights()) {
    return Status::InvalidArgument("weight vector length mismatch");
  }
  std::vector<bool> mask(static_cast<size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) {
    mask[static_cast<size_t>(i)] = dataset.is_active(i);
  }
  return TopKScan(view.rows(), &mask, view.form().AugmentWeights(weights), k);
}

Result<int> IqEngine::RankUnderQuery(int object, int q) const {
  return RankUnderQueryOn(Snapshot(), object, q);
}

Result<std::vector<std::pair<int, int>>> IqEngine::ReverseKRanks(
    int object, int k) const {
  return ReverseKRanksOn(Snapshot(), object, k);
}

Result<int> IqEngine::BestWorkloadRank(int object) const {
  EpochHandle snap = Snapshot();
  if (snap.queries().num_active() == 0) {
    return Status::FailedPrecondition("no active queries");
  }
  IQ_ASSIGN_OR_RETURN(auto best, ReverseKRanksOn(snap, object, 1));
  return best[0].second;
}

Result<IqResult> IqEngine::MinCost(int target, int tau,
                                   const IqOptions& options,
                                   IqScheme scheme) const {
  // Root span of the solve (DESIGN.md §14): allocates the trace id every
  // span below — including chunk bodies on pool workers — inherits, and
  // decides keep/discard against the slow-trace threshold at scope exit.
  IQ_TRACE_ROOT_SCOPE(root, "IqEngine::MinCost", target, tau);
  ScopedTimer latency(EngineMetrics::Get().min_cost_nanos);
  EpochHandle snap = Snapshot();
  BatchItem item;
  item.kind = BatchItem::Kind::kMinCost;
  item.target = target;
  item.tau = tau;
  item.options = options;
  // Single-target calls parallelize *inside* the search (candidate
  // generation + ESE evaluation); see SolveBatch for across-target fan-out.
  item.options.pool = pool_.get();
  RecordSolveStart("MinCost", scheme, target, tau, 0.0, snap.epoch(),
                   root.trace_id());
  Result<IqResult> r = SolveOne(snap.index_ptr(), snap.view_ptr(),
                                snap.queries_ptr(), item, scheme);
  RecordSolveEnd("MinCost", scheme, target, r,
                 static_cast<double>(latency.ElapsedNanos()) / 1e9,
                 snap.epoch(), root.trace_id());
  if (!r.ok()) root.NoteError();
  NoteOutcome(r.ok() ? Status::Ok() : r.status(), root.trace_id());
  return r;
}

Result<IqResult> IqEngine::MaxHit(int target, double beta,
                                  const IqOptions& options,
                                  IqScheme scheme) const {
  IQ_TRACE_ROOT_SCOPE(root, "IqEngine::MaxHit", target);
  ScopedTimer latency(EngineMetrics::Get().max_hit_nanos);
  EpochHandle snap = Snapshot();
  BatchItem item;
  item.kind = BatchItem::Kind::kMaxHit;
  item.target = target;
  item.beta = beta;
  item.options = options;
  item.options.pool = pool_.get();
  RecordSolveStart("MaxHit", scheme, target, 0, beta, snap.epoch(),
                   root.trace_id());
  Result<IqResult> r = SolveOne(snap.index_ptr(), snap.view_ptr(),
                                snap.queries_ptr(), item, scheme);
  RecordSolveEnd("MaxHit", scheme, target, r,
                 static_cast<double>(latency.ElapsedNanos()) / 1e9,
                 snap.epoch(), root.trace_id());
  if (!r.ok()) root.NoteError();
  NoteOutcome(r.ok() ? Status::Ok() : r.status(), root.trace_id());
  return r;
}

Result<std::vector<IqResult>> IqEngine::SolveBatch(
    const std::vector<BatchItem>& items, IqScheme scheme) const {
  return SolveBatchOn(Snapshot(), items, scheme);
}

Result<std::vector<IqResult>> IqEngine::SolveBatchOn(
    const EpochHandle& snap, const std::vector<BatchItem>& items,
    IqScheme scheme) const {
  // Batch-level root: one trace for the whole batch. The per-item roots in
  // the worker lambda below run with this trace active (ParallelFor
  // propagates the context into the chunk bodies), so they join it as child
  // spans instead of opening traces of their own — a slow batch shows up at
  // /tracez as a single trace whose spans carry the worker tids.
  IQ_TRACE_ROOT_SCOPE(batch_root, "IqEngine::SolveBatch",
                      static_cast<int64_t>(items.size()));
  ScopedTimer latency(EngineMetrics::Get().solve_batch_nanos);
  if (!snap.valid()) {
    batch_root.NoteError();
    return NoteOutcome(
        Status::InvalidArgument("SolveBatchOn requires a pinned epoch"),
        batch_root.trace_id());
  }
  // Raw read-only pointers into the pinned epoch for the workers. The pin
  // (held by the caller for SolveBatchOn, by our Snapshot() temporary for
  // SolveBatch) keeps the epoch immutable and alive for the whole parallel
  // region; concurrent mutators publish *newer* epochs and never touch this
  // one, so the workers' lock-free reads cannot race a write.
  const SubdomainIndex* index = snap.index_ptr();
  const FunctionView* view = snap.view_ptr();
  const QuerySet* queries = snap.queries_ptr();
  const uint64_t epoch = snap.epoch();
  // Flight-recorder saturation signal: far more items than workers means
  // the batch will queue behind itself for most of the call.
  if (pool_ != nullptr &&
      static_cast<int64_t>(items.size()) > 16 * pool_->num_threads()) {
    EventLog::Global().Record(EventLog::PoolSaturation(
        "SolveBatch", static_cast<int64_t>(items.size()),
        pool_->num_threads()));
  }
  std::vector<std::optional<Result<IqResult>>> slots(items.size());
  ParallelForOrSerial(
      pool_.get(), static_cast<int64_t>(items.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          BatchItem item = items[static_cast<size_t>(i)];
          // Items are the parallel unit; their inner candidate loops run
          // serially (a nested ParallelFor would run inline anyway, this
          // just makes the contract explicit and thread-count-independent).
          item.options.pool = nullptr;
          const bool min_cost = item.kind == BatchItem::Kind::kMinCost;
          // Per-item root span, opened on whichever worker claimed the
          // item. The batch root's context arrived with the chunk, so this
          // joins the batch's trace as a child span rather than starting a
          // new one — standalone semantics (own trace) apply only when the
          // item solve is the outermost traced operation.
          IQ_TRACE_ROOT_SCOPE(item_root, "SolveBatch.item", item.target, i);
          // Per-item flight-recorder events, recorded from the worker
          // thread that solved the item (the lock striping keeps the
          // concurrent appends cheap — see tests/event_log_test.cc).
          RecordSolveStart("SolveBatch", scheme, item.target,
                           min_cost ? item.tau : 0,
                           min_cost ? 0.0 : item.beta, epoch,
                           item_root.trace_id());
          WallTimer item_timer;
          Result<IqResult> r = SolveOne(index, view, queries, item, scheme);
          RecordSolveEnd("SolveBatch", scheme, item.target, r,
                         item_timer.ElapsedSeconds(), epoch,
                         item_root.trace_id());
          slots[static_cast<size_t>(i)] = std::move(r);
        }
      },
      "engine.solve_batch");
  EngineMetrics::Get().batch_items->Increment(
      static_cast<uint64_t>(items.size()));
  // Deterministic error policy: the lowest-index failure wins.
  std::vector<IqResult> out;
  out.reserve(items.size());
  for (auto& slot : slots) {
    if (!slot->ok()) {
      batch_root.NoteError();
      return NoteOutcome(slot->status(), batch_root.trace_id());
    }
    out.push_back(*std::move(*slot));
  }
  return out;
}

Result<MultiIqResult> IqEngine::MultiMinCost(
    const std::vector<int>& targets, int tau,
    const std::vector<IqOptions>& options) const {
  EpochHandle snap = Snapshot();
  return CombinatorialMinCostIq(snap.index(), targets, tau, options);
}

Result<MultiIqResult> IqEngine::MultiMaxHit(
    const std::vector<int>& targets, double beta,
    const std::vector<IqOptions>& options) const {
  EpochHandle snap = Snapshot();
  return CombinatorialMaxHitIq(snap.index(), targets, beta, options);
}

IqEngine::Delta IqEngine::BeginDelta(DeltaKind kind) {
  // Writers serialize on mu_, so the loaded snapshot *is* the latest one
  // and stays the latest until this writer publishes or bails.
  std::shared_ptr<const EpochSnapshot> cur = CurrentEpoch();
  Delta delta;
  delta.epoch = cur->epoch + 1;
  if (kind == DeltaKind::kObjects) {
    auto dataset = std::make_shared<Dataset>(*cur->dataset);
    auto view = std::make_shared<FunctionView>(*cur->view, dataset.get());
    delta.mutable_dataset = dataset.get();
    delta.mutable_view = view.get();
    delta.dataset = std::move(dataset);
    delta.view = std::move(view);
    delta.queries = cur->queries;
  } else {
    auto queries = std::make_shared<QuerySet>(*cur->queries);
    delta.mutable_queries = queries.get();
    delta.queries = std::move(queries);
    delta.dataset = cur->dataset;
    delta.view = cur->view;
  }
  // The index clone shares every subdomain cell and the R-tree with the
  // current epoch; the maintenance hooks below copy-on-write only the cells
  // the §4.3 affected-subspace computation touches. The new epoch id is set
  // before the hooks run so their flight-recorder events carry it.
  delta.index = std::make_shared<SubdomainIndex>(
      cur->index->CloneCow(delta.view.get(), delta.queries.get(),
                           delta.epoch));
  return delta;
}

void IqEngine::PublishLocked(Delta delta) {
  EngineMetrics::Get().epoch->Set(static_cast<int64_t>(delta.epoch));
  // The maintenance hooks dropped the clone's SoA kernels (scalar fallback
  // while mutating); rebuild them once here so every reader of the published
  // epoch scores through the batch path (DESIGN.md §13).
  delta.index->RebuildScoreKernels();
  auto snapshot = std::make_shared<const EpochSnapshot>(
      delta.epoch, std::move(delta.dataset), std::move(delta.queries),
      std::move(delta.view),
      std::shared_ptr<const SubdomainIndex>(std::move(delta.index)));
  // Linearization point: readers pinning after this store see the new
  // epoch; the superseded snapshot retires when its last pin drops.
  epoch_.store(std::move(snapshot), std::memory_order_release);
}

Result<int> IqEngine::AddQuery(TopKQuery q) {
  IQ_RETURN_IF_ERROR(CheckFinite(q.weights, "query weights"));
  MutexLock lock(&mu_);
  Delta delta = BeginDelta(DeltaKind::kQueries);
  IQ_ASSIGN_OR_RETURN(int id, delta.mutable_queries->Add(std::move(q)));
  // An error discards the whole delta: the published epoch never saw any of
  // this mutation (atomicity the old in-place update could not offer).
  IQ_RETURN_IF_ERROR(delta.index->OnQueryAdded(id));
  PublishLocked(std::move(delta));
  return id;
}

Status IqEngine::RemoveQuery(int q) {
  MutexLock lock(&mu_);
  Delta delta = BeginDelta(DeltaKind::kQueries);
  IQ_RETURN_IF_ERROR(delta.mutable_queries->Remove(q));
  IQ_RETURN_IF_ERROR(delta.index->OnQueryRemoved(q));
  PublishLocked(std::move(delta));
  return Status::Ok();
}

Result<int> IqEngine::AddObject(Vec attrs) {
  IQ_RETURN_IF_ERROR(CheckFinite(attrs, "object attributes"));
  MutexLock lock(&mu_);
  if (static_cast<int>(attrs.size()) != CurrentEpoch()->dataset->dim()) {
    return Status::InvalidArgument("attribute dimension mismatch");
  }
  Delta delta = BeginDelta(DeltaKind::kObjects);
  int id = delta.mutable_dataset->Add(std::move(attrs));
  delta.mutable_view->AppendRow(id);
  IQ_RETURN_IF_ERROR(delta.index->OnObjectAdded(id));
  PublishLocked(std::move(delta));
  return id;
}

Status IqEngine::RemoveObject(int id) {
  MutexLock lock(&mu_);
  Delta delta = BeginDelta(DeltaKind::kObjects);
  IQ_RETURN_IF_ERROR(delta.mutable_dataset->Remove(id));
  IQ_RETURN_IF_ERROR(delta.index->OnObjectRemoved(id));
  PublishLocked(std::move(delta));
  return Status::Ok();
}

Status IqEngine::ApplyStrategy(int target, const Vec& strategy) {
  IQ_TRACE_ROOT_SCOPE(root, "IqEngine::ApplyStrategy", target);
  ScopedTimer latency(EngineMetrics::Get().apply_strategy_nanos);
  MutexLock lock(&mu_);
  Delta delta = BeginDelta(DeltaKind::kObjects);
  uint64_t reranked = 0, reused = 0, affected = 0;
  Status st = ApplyStrategyOnDelta(delta, target, strategy, &reranked,
                                   &reused, &affected);
  Event apply_event = EventLog::ApplyStrategy(
      target, st.ok(), reranked, reused, static_cast<int64_t>(affected),
      static_cast<double>(latency.ElapsedNanos()) / 1e9, delta.epoch);
  apply_event.trace_id = root.trace_id();
  EventLog::Global().Record(std::move(apply_event));
  if (st.ok()) {
    PublishLocked(std::move(delta));
  } else {
    root.NoteError();
  }
  // On failure the delta is simply dropped here: the engine stays exactly
  // at the previous epoch (the old in-place path could leave the target
  // removed when a late step failed).
  return NoteOutcome(std::move(st), root.trace_id());
}

Status IqEngine::ApplyStrategyOnDelta(Delta& delta, int target,
                                      const Vec& strategy,
                                      uint64_t* reranked_out,
                                      uint64_t* reused_out,
                                      uint64_t* affected_out) {
  Dataset& dataset = *delta.mutable_dataset;
  SubdomainIndex& index = *delta.index;
  if (target < 0 || target >= dataset.size() || !dataset.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  if (static_cast<int>(strategy.size()) != dataset.dim()) {
    return Status::InvalidArgument("strategy dimension mismatch");
  }
  IQ_RETURN_IF_ERROR(CheckFinite(strategy, "strategy"));
  Vec improved = Add(dataset.attrs(target), strategy);
  // Finite + finite can still overflow to infinity.
  IQ_RETURN_IF_ERROR(CheckFinite(improved, "improved attributes"));
  const size_t reranks_before = index.maintenance_rerank_events();
  const size_t affected_before = index.maintenance_affected_subdomains();
  // Update order matters: the index patches signatures by treating the
  // change as remove + add, so the dataset/view must change in between.
  IQ_RETURN_IF_ERROR(dataset.Remove(target));
  IQ_RETURN_IF_ERROR(index.OnObjectRemoved(target));
  IQ_RETURN_IF_ERROR(dataset.SetAttrsIncludingInactive(target, improved));
  IQ_RETURN_IF_ERROR(dataset.Reactivate(target));
  delta.mutable_view->RefreshRow(target);
  IQ_RETURN_IF_ERROR(index.OnObjectAdded(target));
  // ESE reuse accounting (§4.3): the remove+add maintenance re-ranked only
  // the queries whose subdomain boundary involved the target; everyone else
  // kept their cached assignment. The delta is capped at the active query
  // count because the two phases can re-rank the same query twice.
  const uint64_t m_active =
      static_cast<uint64_t>(delta.queries->num_active());
  uint64_t reranked = static_cast<uint64_t>(
      index.maintenance_rerank_events() - reranks_before);
  if (reranked > m_active) reranked = m_active;
  const uint64_t affected = static_cast<uint64_t>(
      index.maintenance_affected_subdomains() - affected_before);
  EngineMetrics::Get().queries_reranked->Increment(reranked);
  EngineMetrics::Get().queries_reused->Increment(m_active - reranked);
  EngineMetrics::Get().affected_subspaces->Increment(affected);
  *reranked_out = reranked;
  *reused_out = m_active - reranked;
  *affected_out = affected;
  // Debug-mode ESE cross-check, run on the not-yet-published clone: a stale
  // cached ranking must abort here rather than silently publish an epoch
  // with wrong H(p+s) counts.
  const uint64_t ticket = apply_ticket_++;
  IQ_DCHECK_OK(CrossCheckSampledSubdomain(index, ticket));
  IQ_DCHECK_OK(CrossCheckEse(index, target));
  return Status::Ok();
}

Status IqEngine::NoteOutcome(Status st, uint64_t trace_id) const {
  if (st.ok()) return st;
  Event e = EventLog::Error("IqEngine", st.ToString());
  e.trace_id = trace_id;
  EventLog::Global().Record(std::move(e));
  if (!event_dump_path_.empty()) {
    // Best effort: an unwritable dump path must not mask the real error.
    (void)EventLog::Global().WriteJsonl(event_dump_path_);
  }
  return st;
}

MetricsSnapshot IqEngine::GetStatsSnapshot() const {
  return MetricsRegistry::Global().Snapshot();
}

Status IqEngine::CheckInvariants() const {
  EpochHandle snap = Snapshot();
  return snap.index().CheckInvariants();
}

}  // namespace iq
