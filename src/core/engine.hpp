// The CryptoDrop analysis engine (paper §IV).
//
// Attached to the VFS as a filter (the minifilter analogue of Fig. 2), it
// watches every operation touching the protected documents root, measures
// the three primary indicators (file type change, similarity loss,
// entropy delta) and two secondary indicators (deletion, file type
// funneling) per process, accumulates reputation points, applies union
// indication, and — once a process crosses its threshold — suspends it by
// denying all of its subsequent filtered operations.
//
// State tracking (paper §IV-C): file identity is tracked by FileId, which
// the VFS keeps stable across rename/move. That is what lets the engine
//  * compare a Class B file's content after it returns from a temporary
//    directory against its state before it left, and
//  * link a Class C "new file moved over the original" to the original's
//    pre-image (the paper reports 41 of 63 Class C samples were caught
//    exactly this way).
//
// Threading model (DESIGN.md §9): the engine may be driven concurrently
// from many threads. The per-process scoreboard and the per-file baseline
// table are each split into fixed shards behind their own mutexes; an
// operation locks exactly one scoreboard shard and at most one file shard
// at a time, always in that order. snapshot() takes every scoreboard
// shard (in index order) for one consistent view. Alert callbacks are
// invoked with no engine lock held, on the thread whose operation crossed
// the threshold, before that operation returns.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ranked_mutex.hpp"
#include "core/config.hpp"
#include "entropy/backend.hpp"
#include "entropy/entropy.hpp"
#include "magic/magic.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "simhash/similarity.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/filter.hpp"

namespace cryptodrop::core {

/// Scoreboard-shard mutex: rank 10 in the project lock-rank table
/// (common/ranked_mutex.hpp; DESIGN.md §13).
using ScoreboardMutex = common::RankedMutex<common::lockrank::kScoreboardShard>;
/// File-baseline-shard mutex: rank 20 (acquired under a scoreboard shard).
using FileTableMutex = common::RankedMutex<common::lockrank::kFileTable>;
/// Latency-stats mutex: rank 40 (taken with no other engine lock held).
using LatencyMutex = common::RankedMutex<common::lockrank::kLatencyStats>;

/// Which indicator produced a score event.
enum class Indicator : std::uint8_t {
  entropy_delta,
  type_change,
  similarity_drop,
  deletion,
  funneling,
  union_indication,
  burst_rate,  ///< Extension: §V-F time-window indicator (off by default).
};

/// Stable lowercase label for an indicator ("entropy_delta", "union", ...)
/// — used in reports, metric names, and forensic-timeline JSON.
std::string_view indicator_name(Indicator ind);

/// One reputation-score increment.
struct ScoreEvent {
  std::uint64_t op_seq;  ///< Engine-observed operation sequence number.
  Indicator indicator;
  int points;
  std::string path;  ///< File the event concerns (empty for funneling/union).
  /// For entropy_delta events: which backend(s) voted, comma-joined in
  /// schema order ("shannon", "chi_square,daa"). Empty for every other
  /// indicator.
  std::string backend;
};

/// Point-in-time view of one process's reputation (returned by
/// process_report() and inside EngineSnapshot).
struct ProcessReport {
  vfs::ProcessId pid = 0;
  std::string name;
  int score = 0;
  int threshold = 0;
  bool suspended = false;

  bool union_triggered = false;  ///< All three primaries fired at least once.
  std::uint64_t union_count = 0; ///< Files on which all three primaries co-fired.

  // Per-indicator occurrence counts.
  std::uint64_t entropy_events = 0;
  std::uint64_t type_change_events = 0;
  std::uint64_t similarity_drop_events = 0;
  std::uint64_t deletion_events = 0;
  std::uint64_t funneling_events = 0;
  std::uint64_t rate_events = 0;

  double read_entropy_mean = 0.0;   ///< Pread
  double write_entropy_mean = 0.0;  ///< Pwrite

  std::set<std::string> read_extensions;   ///< Extensions read under the root.
  std::set<std::string> write_extensions;  ///< Extensions written under the root.

  std::vector<ScoreEvent> timeline;  ///< Present when config.record_timeline.

  /// Bounded forensic event history (docs/OBSERVABILITY.md): the same
  /// score changes as `timeline` but with score-before/after and
  /// indicator detail, plus suspension/resume verdict events.
  obs::ForensicTimeline forensic;
};

/// Wall-clock cost of the engine's own measurement work, per operation
/// type — the analogue of §V-H, where the authors traced their driver
/// and reported the added latency per operation (open/read < 1 ms,
/// close 1.58 ms, write 9 ms, rename 16 ms on their prototype).
struct LatencyStats {
  /// Accumulated callback cost for one operation type.
  struct PerOp {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    /// Mean callback cost in microseconds (0 when no samples).
    [[nodiscard]] double mean_micros() const {
      return count == 0 ? 0.0
                        : static_cast<double>(total_ns) / 1000.0 /
                              static_cast<double>(count);
    }
  };
  PerOp open, read, write, truncate, close, remove, rename, mkdir;

  /// The accumulator for `op` (every OpType maps to exactly one field).
  [[nodiscard]] const PerOp& for_op(vfs::OpType op) const;
  /// Mutable variant of for_op().
  PerOp& for_op(vfs::OpType op);
};

/// One consistent view of everything the engine has measured: every
/// process report, the operation count, and the latency breakdown, all
/// captured atomically (no operation is half-reflected across entries).
/// This replaced the racy pid-list + N× process_report() query dance
/// (the old observed_processes() API, now removed).
struct EngineSnapshot {
  /// Reports in ascending scoreboard-key order (the family root's pid
  /// when family scoring is enabled).
  std::vector<ProcessReport> processes;
  std::uint64_t observed_ops = 0;
  LatencyStats latency;
  /// Every engine metric (counters, gauges, stage-latency histograms),
  /// merged across write shards at capture time — the machine-readable
  /// side of this snapshot (obs::to_json serializes it).
  obs::MetricsSnapshot metrics;
  int default_threshold = 0;  ///< config.score_threshold at capture time.

  /// Report for `pid`'s scoreboard entry, or nullptr if never scored.
  [[nodiscard]] const ProcessReport* find(vfs::ProcessId pid) const;
  /// Like find(), but absent pids yield an empty report carrying the
  /// default threshold (mirrors process_report() semantics).
  [[nodiscard]] ProcessReport report_for(vfs::ProcessId pid) const;
};

/// Details passed to the alert callback at the moment of detection.
struct Alert {
  vfs::ProcessId pid = 0;
  std::string process_name;
  int score = 0;
  int threshold = 0;
  bool via_union = false;
  std::uint64_t op_seq = 0;
};

/// The CryptoDrop detector (§IV): a vfs::Filter that scores every
/// process's file activity against the paper's indicators and suspends
/// a process whose reputation crosses the threshold. Fully thread-safe:
/// state is sharded 16 ways (scoreboard and file baselines), callbacks
/// on different processes/files proceed in parallel, and all queries may
/// run concurrently with operations.
class AnalysisEngine : public vfs::Filter {
 public:
  /// Throws std::invalid_argument when `config.validate()` fails — an
  /// engine never runs on a nonsensical scoring configuration.
  explicit AnalysisEngine(ScoringConfig config);

  /// Invoked once, synchronously, when a process is first suspended —
  /// the "alert the user" hook. Runs with no engine lock held. Must be
  /// set before operations are driven through the engine (it is read
  /// without synchronization on the hot path).
  void set_alert_callback(std::function<void(const Alert&)> callback);

  // --- vfs::Filter ------------------------------------------------------
  /// Denies every disk access (except close) of a suspended process and
  /// captures pre-images where measurement needs them. Thread-safe.
  vfs::Verdict pre_operation(const vfs::OperationEvent& event) override;
  /// Scores the completed operation (entropy, type, similarity, deletion,
  /// funneling, rate) and fires the alert callback on a new suspension.
  /// Operations with a non-ok outcome (denied, or failed below the
  /// engine) are dropped unscored: reputation points are only ever
  /// assessed for operations that actually happened. Thread-safe.
  void post_operation(const vfs::OperationEvent& event, const Status& outcome) override;
  /// Called by FileSystem::attach_filter; records the owning filesystem
  /// and picks up its span tracer (if one was set before attachment).
  void on_attach(vfs::FileSystem& fs) override;
  /// Span/log identity ("analysis_engine" child spans in traces).
  [[nodiscard]] std::string_view filter_name() const override {
    return "analysis_engine";
  }

  // --- queries ----------------------------------------------------------
  /// The validated configuration this engine was built with (immutable).
  [[nodiscard]] const ScoringConfig& config() const { return config_; }
  /// Whether `pid`'s scoreboard entry is currently suspended. Thread-safe.
  [[nodiscard]] bool is_suspended(vfs::ProcessId pid) const;
  /// `pid`'s current reputation score (0 if never scored). Thread-safe.
  [[nodiscard]] int score(vfs::ProcessId pid) const;
  /// Point-in-time report for one process (empty report with the default
  /// threshold when `pid` was never scored). Thread-safe.
  [[nodiscard]] ProcessReport process_report(vfs::ProcessId pid) const;
  /// Atomically captures every process report, the observed-op count and
  /// the latency stats under one (stop-the-world) lock acquisition.
  [[nodiscard]] EngineSnapshot snapshot() const;
  /// "Why was pid X suspended?" — the bounded forensic event history of
  /// `pid`'s scoreboard entry (score deltas with before/after values,
  /// indicator detail, and any suspension/resume verdicts). A never-seen
  /// pid yields an empty timeline carrying the default threshold.
  /// Thread-safe; locks only that pid's scoreboard shard.
  [[nodiscard]] obs::ForensicTimeline explain(vfs::ProcessId pid) const;
  /// Current value of every engine metric, merged across write shards.
  /// Thread-safe; may run concurrently with operations (counters already
  /// incremented are visible, in-flight ones may not be). Gauges are
  /// refreshed (shard walk) as part of the call.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  /// Total operations the engine observed under the protected root.
  [[nodiscard]] std::uint64_t observed_ops() const {
    return op_seq_.load(std::memory_order_relaxed);
  }
  /// Per-op-type cost of the engine's own callbacks (§V-H analogue).
  /// Returned by value: the engine's internal stats are lock-guarded.
  [[nodiscard]] LatencyStats latency_stats() const;

  // --- user decisions ------------------------------------------------------
  /// The user chose to let the flagged process continue: clears the
  /// suspension and resets its reputation (it will be re-flagged if the
  /// behavior resumes).
  void resume_process(vfs::ProcessId pid);

 private:
  /// Reputation and indicator state for one process (§IV-A scoreboard).
  struct ProcessState {
    std::string name;
    int score = 0;
    int threshold = 0;
    bool suspended = false;

    // Union bookkeeping: which primaries have fired so far.
    bool saw_entropy = false;
    bool saw_type_change = false;
    bool saw_similarity_drop = false;
    bool union_triggered = false;
    std::uint64_t union_count = 0;

    std::uint64_t entropy_events = 0;
    std::uint64_t type_change_events = 0;
    std::uint64_t similarity_drop_events = 0;
    std::uint64_t deletion_events = 0;
    std::uint64_t funneling_events = 0;
    std::uint64_t rate_events = 0;
    bool funneling_fired = false;

    /// Sliding window of (timestamp, file) modification touches for the
    /// burst-rate indicator.
    std::deque<std::pair<std::uint64_t, vfs::FileId>> recent_mods;
    std::map<vfs::FileId, std::size_t> window_file_counts;

    /// One pair of running means per active entropy member (index
    /// parallel to the engine's `entropy_members_`; sized on entry
    /// creation). Member 0 is the primary backend surfaced in reports.
    std::vector<entropy::WeightedEntropyMean> read_means;
    std::vector<entropy::WeightedEntropyMean> write_means;

    std::set<magic::TypeId> read_types;
    std::set<magic::TypeId> write_types;
    std::set<std::string> read_extensions;
    std::set<std::string> write_extensions;

    std::vector<ScoreEvent> timeline;
    /// Bounded forensic ring (capacity fixed at entry creation from
    /// config.timeline_capacity; 0 = recording disabled). Mutated only
    /// under this entry's shard lock, so it needs no atomics of its own.
    obs::TimelineRing forensic{0};
  };

  /// Pre-modification snapshot of a protected file, keyed by FileId so it
  /// survives renames and directory moves.
  struct FileState {
    std::shared_ptr<const Bytes> baseline;  ///< Content before modification.
    magic::TypeId baseline_type = magic::TypeId::empty;
    /// Lazily computed digest of `baseline` (similarity comparisons are
    /// the engine's most expensive step; skip them until needed).
    std::optional<simhash::SimilarityDigest> baseline_digest;
    bool digest_attempted = false;
    bool pending_check = false;  ///< A write/move happened; compare on close/rename.
  };

  /// Shard counts are fixed powers of two; ids are assigned densely by
  /// the VFS, so a plain modulus spreads them evenly.
  static constexpr std::size_t kScoreboardShards = 16;
  static constexpr std::size_t kFileShards = 16;

  struct ScoreboardShard {
    mutable ScoreboardMutex mu;
    std::map<vfs::ProcessId, ProcessState> states;
  };
  struct FileShard {
    mutable FileTableMutex mu;
    std::map<vfs::FileId, FileState> files;
  };

  /// A scoreboard shard lock pinned to one process entry. While it lives,
  /// the shard's mutex is held and `proc` may be mutated.
  struct LockedProcess {
    std::unique_lock<ScoreboardMutex> lock;
    ProcessState* proc = nullptr;
    vfs::ProcessId key = 0;
  };

  [[nodiscard]] ScoreboardShard& shard_for_key(vfs::ProcessId key) const {
    return scoreboard_shards_[key % kScoreboardShards];
  }
  [[nodiscard]] FileShard& shard_for_file(vfs::FileId id) const {
    return file_shards_[id % kFileShards];
  }

  [[nodiscard]] bool under_root(std::string_view path) const;
  /// Resolves a pid to its scoreboard entry key (the family root when
  /// family scoring is on).
  [[nodiscard]] vfs::ProcessId scoreboard_key(vfs::ProcessId pid) const;
  /// Locks the scoreboard shard of `event.pid`'s key and pins (creating
  /// if needed) its state entry.
  LockedProcess lock_state_for(const vfs::OperationEvent& event);

  /// Adds `points` to `proc`, bumps the per-indicator metrics, and (when
  /// timelines are on) appends both the legacy ScoreEvent and a forensic
  /// TimelineEvent. `detail` is the indicator's measured magnitude
  /// (entropy delta, similarity score, ...); `note` is free-form context.
  void add_points(ProcessState& proc, vfs::ProcessId pid, Indicator indicator,
                  int points, const std::string& path, double detail = 0.0,
                  std::string note = {}, std::string backend = {});
  [[nodiscard]] int scaled_entropy_points(std::size_t op_bytes, double delta) const;
  void score_write_entropy(ProcessState& proc, vfs::ProcessId pid, ByteView data,
                           const std::string& path);
  /// Folds read-side content into every member's read mean (one backend
  /// evaluation per member, under the entropy stage span/timer). Caller
  /// holds the process's scoreboard shard lock.
  void fold_read_entropy(ProcessState& proc, ByteView data);
  /// Burst-rate bookkeeping for one modification touch of `id`.
  void note_modification(ProcessState& proc, vfs::ProcessId pid,
                         std::uint64_t timestamp, vfs::FileId id,
                         const std::string& path);
  void check_union(ProcessState& proc, vfs::ProcessId pid, const std::string& path);
  void maybe_detect(ProcessState& proc, vfs::ProcessId pid, bool via_union);

  /// Captures the pre-image of file `id` (if not already captured).
  /// Locks the file's shard; call with no file-shard lock held.
  void capture_baseline(vfs::FileId id, const std::shared_ptr<const Bytes>& content);
  /// Runs the type-change and similarity checks of `content` against the
  /// tracked baseline of `id`, scoring `proc`. Locks the file's shard;
  /// call with the process shard lock held and no file-shard lock held.
  void evaluate_modification(ProcessState& proc, vfs::ProcessId pid, vfs::FileId id,
                             const std::string& path,
                             const std::shared_ptr<const Bytes>& content);
  /// Digests `content` (non-null) under the sdhash span, histogram and
  /// counter, through the shared digest cache when `via_cache` is set.
  [[nodiscard]] std::optional<simhash::SimilarityDigest> sdhash_digest(
      const std::shared_ptr<const Bytes>& content, bool via_cache) const;
  /// Drops file `id` from the baseline table.
  void forget_file(vfs::FileId id);
  /// Marks `id` for comparison at close/rename time. Returns false when
  /// the file has no tracked baseline.
  bool mark_pending_check(vfs::FileId id);

  /// Registers every engine metric with `metrics_` and caches the
  /// instrument pointers used on the hot path (constructor only).
  void register_metrics();
  /// Walks the file shards (and the shared digest cache, if enabled) to
  /// bring the point-in-time gauges up to date before a metrics snapshot.
  void refresh_gauges(std::size_t tracked_processes) const;
  /// Copies one scoreboard entry's forensic ring into a standalone
  /// timeline. Call with `key`'s shard lock held.
  [[nodiscard]] obs::ForensicTimeline make_forensic(vfs::ProcessId key,
                                                    const ProcessState& proc) const;
  /// Builds the report of scoreboard entry `key`, reported under `pid`.
  /// Call with `key`'s shard lock held.
  [[nodiscard]] ProcessReport make_report(vfs::ProcessId pid, vfs::ProcessId key,
                                          const ProcessState& proc) const;
  /// magic::identify wrapped in the magic_sniff stage timer.
  [[nodiscard]] magic::TypeId sniff_type(ByteView data) const;

  void handle_open_pre(const vfs::OperationEvent& event);
  void handle_rename_pre(const vfs::OperationEvent& event);
  void handle_truncate_pre(const vfs::OperationEvent& event);
  void handle_read_post(const vfs::OperationEvent& event);
  void handle_write_post(const vfs::OperationEvent& event);
  void handle_truncate_post(const vfs::OperationEvent& event);
  void handle_close_post(const vfs::OperationEvent& event);
  void handle_remove_post(const vfs::OperationEvent& event);
  void handle_rename_post(const vfs::OperationEvent& event);

  ScoringConfig config_;
  /// The resolved entropy members (config_.entropy.active_members()):
  /// never empty; member 0 is the primary backend surfaced in reports.
  std::vector<EnsembleMember> entropy_members_;
  /// One constructed backend per member, index-parallel to
  /// entropy_members_. Backends are stateless; score() is thread-safe.
  std::vector<std::unique_ptr<entropy::Backend>> entropy_backends_;
  /// Sum of all member weights (vote quorum denominator).
  double entropy_weight_total_ = 0.0;
  vfs::FileSystem* fs_ = nullptr;  ///< Set on attach; unfiltered inspection.
  /// Set on attach from the filesystem; lets the verdict path mark a
  /// suspended pid keep-all in the sampler. Stage spans themselves nest
  /// via the thread-local current span, not this pointer.
  obs::SpanTracer* tracer_ = nullptr;
  mutable std::array<ScoreboardShard, kScoreboardShards> scoreboard_shards_;
  mutable std::array<FileShard, kFileShards> file_shards_;
  std::function<void(const Alert&)> alert_callback_;
  std::atomic<std::uint64_t> op_seq_{0};
  LatencyStats latency_;
  mutable LatencyMutex latency_mu_;

  // --- observability (docs/OBSERVABILITY.md) ----------------------------
  // The registry owns the instruments; the pointers below are stable
  // hot-path handles cached by register_metrics() in the constructor.
  mutable obs::MetricsRegistry metrics_;
  obs::Counter* m_ops_observed_ = nullptr;
  obs::Counter* m_ops_denied_ = nullptr;
  obs::Counter* m_suspensions_ = nullptr;
  obs::Counter* m_resumes_ = nullptr;
  obs::Counter* m_baselines_ = nullptr;
  obs::Counter* m_digests_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
  std::array<obs::Counter*, 7> m_indicator_events_{};
  std::array<obs::Counter*, 7> m_indicator_points_{};
  std::array<obs::Counter*, entropy::kBackendCount> m_backend_events_{};
  obs::Histogram* h_sdhash_ = nullptr;
  obs::Histogram* h_entropy_ = nullptr;
  obs::Histogram* h_magic_ = nullptr;
  obs::Histogram* h_dispatch_ = nullptr;
  obs::Histogram* h_close_measure_ = nullptr;
  obs::Gauge* g_processes_ = nullptr;
  obs::Gauge* g_files_ = nullptr;
  obs::Gauge* g_cache_hits_ = nullptr;
  obs::Gauge* g_cache_misses_ = nullptr;
  obs::Gauge* g_cache_entries_ = nullptr;
  obs::Gauge* g_cache_evictions_ = nullptr;
  obs::Gauge* g_pool_acquires_ = nullptr;
  obs::Gauge* g_pool_hits_ = nullptr;
  obs::Gauge* g_pool_bytes_retained_ = nullptr;
};

}  // namespace cryptodrop::core
