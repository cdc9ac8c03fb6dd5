// cryptodropd tests (ctest label: daemon): admission-control shedding
// order, tenant lifecycle under concurrent load, drain/shutdown
// determinism, the registry's double-attach invariant, overload
// behavior (shed, never block, never lose a ransomware verdict), and
// the parity gate — golden campaign + benign suite replayed through a
// live daemon by 8 concurrent tenants must produce bit-identical
// scoreboards. CI runs this binary under TSan.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "daemon/control.hpp"
#include "daemon/daemon.hpp"
#include "daemon/queue.hpp"
#include "daemon/server.hpp"
#include "daemon/wire.hpp"
#include "harness/daemon_runner.hpp"
#include "harness/experiment.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::daemon {
namespace {

vfs::TraceEntry read_entry() {
  vfs::TraceEntry entry;
  entry.op = vfs::OpType::read;
  entry.pid = 1;
  entry.handle = 1;
  return entry;
}

vfs::TraceEntry write_entry() {
  vfs::TraceEntry entry;
  entry.op = vfs::OpType::write;
  entry.pid = 1;
  entry.handle = 1;
  return entry;
}

QueueItem op_item(vfs::TraceEntry entry) {
  QueueItem item;
  item.entry = std::move(entry);
  return item;
}

/// Raw AF_UNIX line client for the `watch` stream tests: unlike
/// DaemonClient (one request, one response) it keeps reading frames
/// the server pushes without a matching request.
class StreamClient {
 public:
  explicit StreamClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~StreamClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends `bytes` as they are (no newline added). MSG_NOSIGNAL: a
  /// server that closed early is an error return, not a SIGPIPE.
  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    return ::write(fd_, framed.data(), framed.size()) ==
           static_cast<ssize_t>(framed.size());
  }

  /// Blocking read of the next full line. False on EOF or error.
  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- EventJournal: cursors, overflow, conservation ---------------------

TEST(EventJournalTest, CursorsStayMonotonicAcrossRingOverflow) {
  EventJournal journal(4);
  for (int i = 0; i < 10; ++i) {
    const EventJournal::AppendResult appended = journal.append(
        EventKind::shed_start, "t", 0, static_cast<double>(i), "");
    EXPECT_EQ(appended.cursor, static_cast<std::uint64_t>(i));
    EXPECT_EQ(appended.overwrote, i >= 4);
  }
  EXPECT_EQ(journal.emitted(), 10u);
  EXPECT_EQ(journal.overwritten(), 6u);
  // A reader starting at 0 sees the gap as an exact dropped count and
  // the surviving events in cursor order.
  const EventJournal::Drain drain = journal.since(0, "", 100);
  EXPECT_EQ(drain.dropped, 6u);
  ASSERT_EQ(drain.events.size(), 4u);
  for (std::size_t i = 0; i < drain.events.size(); ++i) {
    EXPECT_EQ(drain.events[i].cursor, 6u + i);
  }
  EXPECT_EQ(drain.next_cursor, 10u);
  // Following from next_cursor: nothing new, nothing dropped.
  const EventJournal::Drain again = journal.since(drain.next_cursor, "", 100);
  EXPECT_TRUE(again.events.empty());
  EXPECT_EQ(again.dropped, 0u);
  EXPECT_EQ(again.next_cursor, 10u);
}

TEST(EventJournalTest, PagedReaderConservesEmittedEqualsDeliveredPlusDropped) {
  EventJournal journal(8);
  for (int i = 0; i < 20; ++i) {
    journal.append(EventKind::shed_start, "t", 0, 0.0, "");
  }
  std::uint64_t cursor = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  for (;;) {
    const EventJournal::Drain drain = journal.since(cursor, "", 3);
    delivered += drain.events.size();
    dropped += drain.dropped;
    if (drain.next_cursor == cursor) break;  // Fully caught up.
    cursor = drain.next_cursor;
  }
  EXPECT_EQ(delivered + dropped, journal.emitted());
  EXPECT_EQ(delivered, journal.capacity());
  EXPECT_EQ(dropped, journal.overwritten());
}

TEST(EventJournalTest, TenantFilterSkipsButNeverRewindsTheCursor) {
  EventJournal journal(16);
  for (int i = 0; i < 6; ++i) {
    journal.append(EventKind::shed_start, i % 2 == 0 ? "a" : "b", 0, 0.0, "");
  }
  const EventJournal::Drain only_a = journal.since(0, "a", 100);
  ASSERT_EQ(only_a.events.size(), 3u);
  for (const JournalEvent& event : only_a.events) {
    EXPECT_EQ(event.tenant, "a");
  }
  // Filtered-out events still advance the cursor: a follower never
  // re-reads them.
  EXPECT_EQ(only_a.next_cursor, 6u);
  // Paging with a small max resumes exactly at the next matching event.
  const EventJournal::Drain first_page = journal.since(0, "a", 2);
  ASSERT_EQ(first_page.events.size(), 2u);
  const EventJournal::Drain second_page =
      journal.since(first_page.next_cursor, "a", 100);
  ASSERT_EQ(second_page.events.size(), 1u);
  EXPECT_EQ(second_page.events[0].cursor, 4u);
}

// --- BoundedOpQueue: shedding order ------------------------------------

TEST(BoundedOpQueueTest, ReadClassIsShedFirstAtCapacity) {
  BoundedOpQueue queue(2);
  EXPECT_TRUE(queue.push(op_item(write_entry())).accepted);
  EXPECT_TRUE(queue.push(op_item(write_entry())).accepted);
  // Queue full of modify-class work: an incoming read is shed outright.
  const BoundedOpQueue::PushResult read_push = queue.push(op_item(read_entry()));
  EXPECT_FALSE(read_push.accepted);
  EXPECT_TRUE(read_push.shed_incoming);
  EXPECT_EQ(read_push.reason, ShedReason::benign_read);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(BoundedOpQueueTest, ModifyClassEvictsOldestQueuedRead) {
  BoundedOpQueue queue(2);
  EXPECT_TRUE(queue.push(op_item(read_entry())).accepted);
  EXPECT_TRUE(queue.push(op_item(write_entry())).accepted);
  const BoundedOpQueue::PushResult push = queue.push(op_item(write_entry()));
  EXPECT_TRUE(push.accepted);
  EXPECT_FALSE(push.shed_incoming);
  ASSERT_NE(push.evicted, nullptr);
  EXPECT_EQ(push.evicted->entry.op, vfs::OpType::read);
  EXPECT_EQ(push.reason, ShedReason::benign_read);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(BoundedOpQueueTest, ModifyClassShedsOnlyWhenNoReadCanMakeWay) {
  BoundedOpQueue queue(2);
  EXPECT_TRUE(queue.push(op_item(write_entry())).accepted);
  EXPECT_TRUE(queue.push(op_item(write_entry())).accepted);
  const BoundedOpQueue::PushResult push = queue.push(op_item(write_entry()));
  EXPECT_FALSE(push.accepted);
  EXPECT_TRUE(push.shed_incoming);
  EXPECT_EQ(push.reason, ShedReason::queue_full);
}

TEST(BoundedOpQueueTest, ReadOnlyOpenIsReadClassButWriteOpenIsNot) {
  vfs::TraceEntry ro;
  ro.op = vfs::OpType::open;
  ro.open_mode = vfs::kRead;
  EXPECT_TRUE(is_read_class(op_item(ro)));
  vfs::TraceEntry rw = ro;
  rw.open_mode = vfs::kRead | vfs::kWrite;
  EXPECT_FALSE(is_read_class(op_item(rw)));
}

TEST(BoundedOpQueueTest, SpawnsAreNeverShedEvenOverCapacity) {
  BoundedOpQueue queue(1);
  EXPECT_TRUE(queue.push(op_item(write_entry())).accepted);
  QueueItem spawn;
  spawn.is_spawn = true;
  spawn.spawn_pid = 2;
  const BoundedOpQueue::PushResult push = queue.push(std::move(spawn));
  EXPECT_TRUE(push.accepted);
  EXPECT_EQ(push.evicted, nullptr);
  EXPECT_EQ(queue.depth(), 2u);  // Over capacity by design.
}

// --- Daemon fixtures ---------------------------------------------------

class DaemonTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    env = new harness::Environment(
        harness::make_environment(harness::small_corpus_spec(200, 20), 123));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  static DaemonOptions small_options(std::size_t workers,
                                     std::size_t capacity) {
    DaemonOptions options;
    options.workers = workers;
    options.queue_capacity = capacity;
    return options;
  }

  /// A recorded encryptor run: golden result + the applied op stream.
  struct Recorded {
    harness::RansomwareRunResult result;
    std::vector<vfs::TraceEntry> entries;
  };

  static Recorded record_sample(const sim::SampleSpec& spec) {
    vfs::TraceRecorder recorder(/*capture_content=*/true);
    Recorded recorded;
    recorded.result = harness::run_sample(*env, spec, {}, &recorder);
    recorded.entries = recorder.entries();
    return recorded;
  }

  static sim::SampleSpec encryptor_spec() {
    sim::SampleSpec spec;
    spec.family = "TeslaCrypt";
    spec.behavior = sim::BehaviorClass::A;
    spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
    spec.profile.behavior = sim::BehaviorClass::A;
    spec.seed = 7;
    return spec;
  }

  /// Sends the recorded run's new processes to the daemon tenant.
  static void send_spawns(Daemon& daemon, const std::string& tenant,
                          const harness::RansomwareRunResult& result) {
    const std::size_t base = env->base_fs.process_count();
    for (const harness::ProcessRosterEntry& entry : result.roster) {
      if (entry.pid > base) {
        ASSERT_TRUE(daemon.spawn(tenant, entry.pid, entry.name, entry.parent)
                        .is_ok());
      }
    }
  }
};

harness::Environment* DaemonTest::env = nullptr;

// --- tenant lifecycle --------------------------------------------------

TEST_F(DaemonTest, AttachRejectsDuplicateAndEmptyIds) {
  Daemon daemon(env->base_fs, small_options(2, 64));
  EXPECT_TRUE(daemon.attach("alpha").is_ok());
  const Status dup = daemon.attach("alpha");
  EXPECT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.code(), Errc::invalid_argument);
  EXPECT_FALSE(daemon.attach("").is_ok());
  EXPECT_TRUE(daemon.detach("alpha").is_ok());
  EXPECT_FALSE(daemon.detach("alpha").is_ok());  // Already gone.
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, RegistryAbortsOnDoubleInsert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TenantRegistry registry;
  auto first = std::make_shared<TenantState>("twin", env->base_fs,
                                             core::ScoringConfig{});
  registry.insert(first);
  auto second = std::make_shared<TenantState>("twin", env->base_fs,
                                              core::ScoringConfig{});
  EXPECT_DEATH(registry.insert(second), "attached twice");
}

TEST_F(DaemonTest, AttachDetachUnderConcurrentSubmitLoad) {
  Daemon daemon(env->base_fs, small_options(4, 256));
  constexpr std::size_t kTenants = 6;
  constexpr std::size_t kBatches = 20;
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> shed_or_accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "load_" + std::to_string(t);
      ASSERT_TRUE(daemon.attach(tenant).is_ok());
      ASSERT_TRUE(daemon.spawn(tenant, 100, "writer", 0).is_ok());
      for (std::size_t batch = 0; batch < kBatches; ++batch) {
        std::vector<vfs::TraceEntry> entries(8, write_entry());
        for (vfs::TraceEntry& entry : entries) entry.pid = 100;
        const Result<SubmitResult> result =
            daemon.submit(tenant, std::move(entries));
        ASSERT_TRUE(result.is_ok());
        sent.fetch_add(8);
        shed_or_accepted.fetch_add(result.value().accepted +
                                   result.value().shed);
      }
      // Detach mid-stream on half the tenants: queued ops must be shed
      // as tenant_gone, not executed into a dead session.
      if (t % 2 == 0) {
        ASSERT_TRUE(daemon.detach(tenant).is_ok());
        const Result<SubmitResult> after =
            daemon.submit(tenant, {write_entry()});
        EXPECT_FALSE(after.is_ok());
        EXPECT_EQ(after.code(), Errc::not_found);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every submitted op got a decision, none silently vanished.
  EXPECT_EQ(sent.load(), shed_or_accepted.load());
  daemon.drain();
  daemon.shutdown(/*drain_first=*/true);
  const obs::MetricsSnapshot metrics = daemon.metrics();
  std::uint64_t executed = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  for (const obs::CounterSnapshot& counter : metrics.counters) {
    if (counter.name == "daemon_ops_executed_total") executed = counter.value;
    if (counter.name == "daemon_ops_ingested_total") ingested = counter.value;
    if (counter.name.rfind("daemon_ops_shed_total.", 0) == 0) {
      shed += counter.value;
    }
  }
  // spawns (6) + ops sent; every one either executed or counted shed.
  EXPECT_EQ(sent.load() + kTenants, executed + shed);
  EXPECT_LE(executed, ingested);
}

// --- drain / shutdown --------------------------------------------------

TEST_F(DaemonTest, DrainThenShutdownIsDeterministic) {
  const Recorded recorded = record_sample(encryptor_spec());
  std::string first_line;
  for (int round = 0; round < 2; ++round) {
    Daemon daemon(env->base_fs, small_options(3, 4096));
    ControlDispatcher dispatcher(daemon);
    ASSERT_TRUE(daemon.attach("replay").is_ok());
    send_spawns(daemon, "replay", recorded.result);
    ASSERT_TRUE(
        daemon.submit("replay", recorded.entries).is_ok());
    daemon.drain();
    const std::string line =
        dispatcher.handle_line("{\"type\":\"verdicts\",\"tenant\":\"replay\"}");
    if (round == 0) {
      first_line = line;
    } else {
      EXPECT_EQ(line, first_line);
    }
    daemon.shutdown(/*drain_first=*/true);
    EXPECT_TRUE(daemon.shutdown_complete());
    // Idempotent: a second shutdown (and the destructor's) is a no-op.
    daemon.shutdown(/*drain_first=*/false);
  }
  // The deterministic scoreboard matches the in-process golden run.
  const std::string expected =
      Json::object()
          .set("ok", true)
          .set("scoreboard", scoreboard_to_json(recorded.result.scoreboard))
          .to_string();
  EXPECT_EQ(first_line, expected);
}

TEST_F(DaemonTest, BatchedDrainMatchesSingleItemDrainBitForBit) {
  // Workers drain their queue in chunks of `drain_batch` (one lock
  // acquisition per chunk). Batching must be invisible to everything but
  // the lock: identical verdict scoreboard, conserved per-tenant
  // accounting, and strictly fewer queue-lock acquisitions than the
  // one-item-per-pop configuration.
  const Recorded recorded = record_sample(encryptor_spec());
  std::string lines[2];
  std::uint64_t batches[2] = {0, 0};
  const std::size_t batch_limits[2] = {1, 64};
  for (int round = 0; round < 2; ++round) {
    DaemonOptions options = small_options(2, 4096);
    options.drain_batch = batch_limits[round];
    Daemon daemon(env->base_fs, options);
    ControlDispatcher dispatcher(daemon);
    ASSERT_TRUE(daemon.attach("replay").is_ok());
    send_spawns(daemon, "replay", recorded.result);
    // Pause so the whole stream is queued before any worker wakes: the
    // batched round then provably drains in multi-item chunks.
    daemon.pause_workers();
    ASSERT_TRUE(daemon.submit("replay", recorded.entries).is_ok());
    daemon.resume_workers();
    daemon.drain();
    lines[round] =
        dispatcher.handle_line("{\"type\":\"verdicts\",\"tenant\":\"replay\"}");
    for (const obs::CounterSnapshot& c : daemon.metrics().counters) {
      if (c.name == "daemon_batches_drained_total") batches[round] = c.value;
    }
    const std::vector<TenantInfo> tenants = daemon.tenants();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].ingested, tenants[0].executed + tenants[0].shed)
        << "batched drain lost or double-counted an op";
    daemon.shutdown(/*drain_first=*/true);
  }
  EXPECT_EQ(lines[0], lines[1]) << "drain_batch changed the scoreboard";
  EXPECT_GT(batches[0], 0u);
  EXPECT_GT(batches[1], 0u);
  EXPECT_LT(batches[1], batches[0])
      << "drain_batch=64 should amortise the queue lock across items";
}

TEST_F(DaemonTest, NonDrainedShutdownCountsDiscardedWork) {
  Daemon daemon(env->base_fs, small_options(1, 1024));
  ASSERT_TRUE(daemon.attach("doomed").is_ok());
  ASSERT_TRUE(daemon.spawn("doomed", 100, "writer", 0).is_ok());
  daemon.pause_workers();
  std::vector<vfs::TraceEntry> entries(50, write_entry());
  for (vfs::TraceEntry& entry : entries) entry.pid = 100;
  ASSERT_TRUE(daemon.submit("doomed", std::move(entries)).is_ok());
  daemon.resume_workers();
  daemon.shutdown(/*drain_first=*/false);
  const std::vector<TenantInfo> tenants = daemon.tenants();
  ASSERT_EQ(tenants.size(), 1u);
  // Nothing lost: every ingested item executed or was counted shed.
  EXPECT_EQ(tenants[0].ingested, tenants[0].executed + tenants[0].shed);
  // Submits after shutdown shed everything as `shutdown`.
  const Result<SubmitResult> late = daemon.submit("doomed", {write_entry()});
  ASSERT_TRUE(late.is_ok());
  EXPECT_EQ(late.value().accepted, 0u);
  EXPECT_EQ(late.value().shed, 1u);
}

// --- overload ----------------------------------------------------------

TEST_F(DaemonTest, OverloadShedsCountsEverythingAndKeepsVerdict) {
  const Recorded recorded = record_sample(encryptor_spec());
  ASSERT_TRUE(recorded.result.detected);
  // A queue far smaller than the combined load forces admission control.
  Daemon daemon(env->base_fs, small_options(1, 64));
  ASSERT_TRUE(daemon.attach("overload").is_ok());
  send_spawns(daemon, "overload", recorded.result);
  // A benign scanner hammering reads — the load the daemon is built to
  // shed first. Its reads reference a handle that was never opened, so
  // the ones that reach a worker resolve as dead-handle skips (the same
  // shed bucket), keeping the scenario deterministic.
  const vfs::ProcessId scanner = 100;
  ASSERT_TRUE(daemon.spawn("overload", scanner, "scanner", 0).is_ok());
  std::vector<vfs::TraceEntry> flood(500, read_entry());
  for (vfs::TraceEntry& entry : flood) {
    entry.pid = scanner;
    entry.handle = 9999;  // Never opened.
  }
  daemon.pause_workers();  // Deterministic overload: nothing drains yet.
  std::size_t accepted = 0;
  std::size_t shed = 0;
  // The suspicious stream is already queued when the flood lands. The
  // policy must hold it: incoming read-class ops are shed outright —
  // they never evict queued work — so nothing of the recorded sequence
  // is lost to the noise.
  const Result<SubmitResult> sample_result =
      daemon.submit("overload", recorded.entries);
  ASSERT_TRUE(sample_result.is_ok());  // submit never blocks, never fails.
  EXPECT_EQ(sample_result.value().accepted, recorded.entries.size());
  accepted += sample_result.value().accepted;
  shed += sample_result.value().shed;
  const std::size_t flood_size = flood.size();
  const Result<SubmitResult> flood_result =
      daemon.submit("overload", std::move(flood));
  ASSERT_TRUE(flood_result.is_ok());
  accepted += flood_result.value().accepted;
  shed += flood_result.value().shed;
  EXPECT_GT(shed, 0u) << "the flood must overflow a 64-slot queue";
  // Every submitted op got exactly one admission decision (no evictions
  // occur here: read-class ops shed instead of evicting).
  EXPECT_EQ(accepted + shed, recorded.entries.size() + flood_size);
  daemon.resume_workers();
  daemon.drain();
  const std::vector<TenantInfo> tenants = daemon.tenants();
  ASSERT_EQ(tenants.size(), 1u);
  const std::size_t spawns = 1 + recorded.result.roster.size() -
                             env->base_fs.process_count();
  // ...and after the drain, every decision is in exactly one bucket.
  EXPECT_EQ(flood_size + recorded.entries.size() + spawns,
            tenants[0].executed + tenants[0].shed);
  // The encryptor's suspension verdict survives shedding: dropped
  // benign reads cannot un-suspend a process scored on its writes.
  const Result<core::EngineSnapshot> verdicts = daemon.verdicts("overload");
  ASSERT_TRUE(verdicts.is_ok());
  bool suspended = false;
  for (const core::ProcessReport& report : verdicts.value().processes) {
    suspended = suspended || report.suspended;
  }
  EXPECT_TRUE(suspended);
  daemon.shutdown(/*drain_first=*/true);
}

// --- control API -------------------------------------------------------

TEST_F(DaemonTest, ControlApiEnvelopeAndErrors) {
  Daemon daemon(env->base_fs, small_options(2, 64));
  ControlDispatcher dispatcher(daemon);
  EXPECT_EQ(dispatcher.handle_line("{\"type\":\"ping\"}"),
            "{\"ok\":true,\"pong\":true}");
  EXPECT_EQ(dispatcher.handle_line("{\"type\":\"attach\",\"tenant\":\"t\"}"),
            "{\"ok\":true,\"tenant\":\"t\"}");
  const std::string dup =
      dispatcher.handle_line("{\"type\":\"attach\",\"tenant\":\"t\"}");
  EXPECT_EQ(dup.rfind("{\"ok\":false", 0), 0u) << dup;
  EXPECT_EQ(dispatcher.handle_line("not json").rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(dispatcher.handle_line("{\"type\":\"nope\"}")
                .rfind("{\"ok\":false", 0),
            0u);
  // Request/error counters tally every line.
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  for (const obs::CounterSnapshot& counter : daemon.metrics().counters) {
    if (counter.name == "daemon_control_requests_total") {
      requests = counter.value;
    }
    if (counter.name == "daemon_control_errors_total") errors = counter.value;
  }
  EXPECT_EQ(requests, 5u);
  EXPECT_EQ(errors, 3u);
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, AttachConfigOverridesApply) {
  Daemon daemon(env->base_fs, small_options(2, 64));
  ControlDispatcher dispatcher(daemon);
  dispatcher.handle_line(
      "{\"type\":\"attach\",\"tenant\":\"low\","
      "\"config\":{\"score_threshold\":50,\"union_threshold\":40}}");
  const Result<core::EngineSnapshot> verdicts = daemon.verdicts("low");
  ASSERT_TRUE(verdicts.is_ok());
  EXPECT_EQ(verdicts.value().default_threshold, 50);
  daemon.shutdown(/*drain_first=*/true);
}

// --- operator telemetry: journal, health, control surface --------------

TEST_F(DaemonTest, JournalRecordsLifecycleAndSuspensionVerdicts) {
  const Recorded recorded = record_sample(encryptor_spec());
  ASSERT_TRUE(recorded.result.detected);
  Daemon daemon(env->base_fs, small_options(1, 4096));
  ASSERT_TRUE(daemon.attach("victim").is_ok());
  send_spawns(daemon, "victim", recorded.result);
  ASSERT_TRUE(daemon.submit("victim", recorded.entries).is_ok());
  daemon.drain();
  ASSERT_TRUE(daemon.detach("victim").is_ok());
  daemon.shutdown(/*drain_first=*/true);
  const EventJournal::Drain drain =
      daemon.telemetry().journal().since(0, "", 10000);
  std::set<EventKind> kinds;
  for (const JournalEvent& event : drain.events) kinds.insert(event.kind);
  EXPECT_TRUE(kinds.count(EventKind::worker_start));
  EXPECT_TRUE(kinds.count(EventKind::tenant_attach));
  EXPECT_TRUE(kinds.count(EventKind::suspension));
  EXPECT_TRUE(kinds.count(EventKind::tenant_detach));
  EXPECT_TRUE(kinds.count(EventKind::worker_stop));
  // The suspension event carries the verdict: tenant, score, process.
  for (const JournalEvent& event : drain.events) {
    if (event.kind != EventKind::suspension) continue;
    EXPECT_EQ(event.tenant, "victim");
    EXPECT_GT(event.value, 0.0);
    EXPECT_FALSE(event.detail.empty());
  }
  // The journal counter matches what the ring handed out.
  std::uint64_t journaled = 0;
  for (const obs::CounterSnapshot& counter : daemon.metrics().counters) {
    if (counter.name == "daemon_journal_events_total") {
      journaled = counter.value;
    }
  }
  EXPECT_EQ(journaled, daemon.telemetry().journal().emitted());
}

TEST_F(DaemonTest, HealthVerdictTracksOverloadEpisodeAndRecovery) {
  Daemon daemon(env->base_fs, small_options(1, 64));
  ASSERT_TRUE(daemon.attach("t").is_ok());
  ASSERT_TRUE(daemon.spawn("t", 100, "writer", 0).is_ok());
  EXPECT_EQ(daemon.health().level, HealthLevel::ok);
  // Flood a paused 64-slot queue far past capacity: occupancy pins at
  // 100% and the overload latch trips.
  daemon.pause_workers();
  std::vector<vfs::TraceEntry> flood(500, write_entry());
  for (vfs::TraceEntry& entry : flood) entry.pid = 100;
  ASSERT_TRUE(daemon.submit("t", std::move(flood)).is_ok());
  const HealthReport loaded = daemon.health();
  EXPECT_EQ(loaded.level, HealthLevel::overloaded);
  EXPECT_TRUE(loaded.overloaded);
  EXPECT_GE(loaded.queue_occupancy, 0.9);
  daemon.resume_workers();
  daemon.drain();
  // Hysteresis releases once the queues drain, but the flood's shed
  // ratio (>1% lifetime) keeps the verdict at degraded, not ok.
  const HealthReport drained = daemon.health();
  EXPECT_FALSE(drained.overloaded);
  EXPECT_EQ(drained.queue_depth, 0u);
  EXPECT_EQ(drained.level, HealthLevel::degraded);
  EXPECT_GT(drained.shed_ratio, 0.01);
  EXPECT_GT(drained.heartbeats, 0u);
  // The episode is journaled edge-triggered: one enter, one exit.
  const EventJournal::Drain events =
      daemon.telemetry().journal().since(0, "", 10000);
  std::size_t enters = 0;
  std::size_t exits = 0;
  for (const JournalEvent& event : events.events) {
    enters += event.kind == EventKind::overload_enter ? 1 : 0;
    exits += event.kind == EventKind::overload_exit ? 1 : 0;
  }
  EXPECT_EQ(enters, 1u);
  EXPECT_EQ(exits, 1u);
  daemon.shutdown(/*drain_first=*/true);
}

/// The daemon-wide value of one counter (0 when absent).
std::uint64_t counter_value(const Daemon& daemon, std::string_view name) {
  for (const obs::CounterSnapshot& counter : daemon.metrics().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

TEST_F(DaemonTest, ControlHostileJsonNestingIsOneErrorLine) {
  // 30,000 levels in a single request line: one error envelope, one
  // counted error, and the daemon still answers.
  Daemon daemon(env->base_fs, small_options(1, 64));
  ControlDispatcher dispatcher(daemon);
  constexpr std::size_t kDepth = 30000;
  std::string objects;
  for (std::size_t i = 0; i < kDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kDepth, '}');
  for (const std::string& line :
       {std::string(kDepth, '[') + std::string(kDepth, ']'), objects}) {
    const std::uint64_t errors_before =
        counter_value(daemon, "daemon_control_errors_total");
    const std::string response = dispatcher.handle_line(line);
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
    EXPECT_EQ(response.find('\n'), std::string::npos);
    EXPECT_EQ(counter_value(daemon, "daemon_control_errors_total"),
              errors_before + 1);
  }
  EXPECT_EQ(dispatcher.handle_line("{\"type\":\"ping\"}"),
            "{\"ok\":true,\"pong\":true}");
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, ControlOutOfRangeNumbersAreOneInvalidArgumentLine) {
  // Numbers the control API converts to integers: each bad value is one
  // invalid_argument envelope and one counted error, never an undefined
  // float-to-integer conversion.
  Daemon daemon(env->base_fs, small_options(1, 64));
  ControlDispatcher dispatcher(daemon);
  ASSERT_EQ(dispatcher.handle_line(R"({"type":"attach","tenant":"t"})"),
            R"({"ok":true,"tenant":"t"})");
  // Each request with `@` standing for the bad value; `key` is the field.
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"cursor", R"({"type":"events","cursor":@})"},
      {"max", R"({"type":"events","max":@})"},
      {"cursor", R"({"type":"watch","cursor":@})"},
      {"pid", R"({"type":"spawn","tenant":"t","pid":@})"},
      {"parent", R"({"type":"spawn","tenant":"t","pid":5,"parent":@})"},
      {"pid", R"({"type":"explain","tenant":"t","pid":@})"},
      {"score_threshold", R"({"type":"attach","tenant":"u","config":{"score_threshold":@}})"},
      {"union_threshold", R"({"type":"attach","tenant":"u","config":{"union_threshold":@}})"},
      {"union_bonus", R"({"type":"attach","tenant":"u","config":{"union_bonus":@}})"},
  };
  for (const auto& [key, request] : requests) {
    // The config overrides are signed: -1 is in range there.
    const bool is_signed = request.find("config") != std::string::npos;
    for (const char* value : {is_signed ? "-1e300" : "-1", "0.5", "1e300"}) {
      std::string line = request;
      line.replace(line.find('@'), 1, value);
      const std::uint64_t errors_before =
          counter_value(daemon, "daemon_control_errors_total");
      const std::string response = dispatcher.handle_line(line);
      EXPECT_EQ(response, "{\"ok\":false,\"error\":\"invalid_argument: `" + key +
                              "` must be a whole number in range\",\"code\":"
                              "\"invalid_argument\"}")
          << line;
      EXPECT_EQ(counter_value(daemon, "daemon_control_errors_total"), errors_before + 1)
          << line;
    }
  }
  // None of the rejected requests took effect, and in-range values work.
  EXPECT_TRUE(daemon.attach("u").is_ok());
  EXPECT_EQ(dispatcher.handle_line(R"({"type":"events","cursor":0,"max":2})")
                .rfind("{\"ok\":true", 0),
            0u);
  EXPECT_EQ(dispatcher.handle_line(R"({"type":"spawn","tenant":"t","pid":5})"),
            "{\"ok\":true}");
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, ControlDuplicateJsonKeyFirstMatchWins) {
  Daemon daemon(env->base_fs, small_options(1, 64));
  ControlDispatcher dispatcher(daemon);
  EXPECT_EQ(dispatcher.handle_line("{\"type\":\"ping\",\"type\":\"shutdown\"}"),
            "{\"ok\":true,\"pong\":true}");
  EXPECT_FALSE(daemon.shutdown_complete());
  EXPECT_TRUE(daemon.attach("still_running").is_ok());
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, ControlEventsRequestPagesWithCursorsAndFilters) {
  Daemon daemon(env->base_fs, small_options(1, 64));
  ControlDispatcher dispatcher(daemon);
  // The lone worker journals worker_start from its own thread; wait for
  // it so every count below is deterministic.
  while (daemon.telemetry().journal().emitted() < 1) {
    std::this_thread::yield();
  }
  dispatcher.handle_line("{\"type\":\"attach\",\"tenant\":\"a\"}");
  dispatcher.handle_line("{\"type\":\"attach\",\"tenant\":\"b\"}");
  dispatcher.handle_line("{\"type\":\"detach\",\"tenant\":\"b\"}");
  const std::string all = dispatcher.handle_line("{\"type\":\"events\"}");
  const Result<Json> parsed = Json::parse(all);
  ASSERT_TRUE(parsed.is_ok()) << all;
  ASSERT_TRUE(parsed.value().bool_or("ok", false));
  const Json* events = parsed.value().find("events");
  ASSERT_NE(events, nullptr);
  // worker_start + attach a + attach b + detach b, cursor order.
  ASSERT_GE(events->items().size(), 4u);
  double last_cursor = -1.0;
  for (const Json& event : events->items()) {
    EXPECT_GT(event.number_or("cursor", -1.0), last_cursor);
    last_cursor = event.number_or("cursor", -1.0);
  }
  EXPECT_EQ(parsed.value().number_or("dropped", -1.0), 0.0);
  const double next_cursor = parsed.value().number_or("next_cursor", -1.0);
  EXPECT_EQ(next_cursor, static_cast<double>(
                             daemon.telemetry().journal().emitted()));
  // A follow-up from next_cursor is empty; a tenant filter sees only
  // that tenant's events.
  const std::string tail = dispatcher.handle_line(
      "{\"type\":\"events\",\"cursor\":" +
      std::to_string(static_cast<unsigned long long>(next_cursor)) + "}");
  const Result<Json> tail_parsed = Json::parse(tail);
  ASSERT_TRUE(tail_parsed.is_ok()) << tail;
  EXPECT_TRUE(tail_parsed.value().find("events")->items().empty());
  const std::string only_b = dispatcher.handle_line(
      "{\"type\":\"events\",\"tenant\":\"b\"}");
  const Result<Json> b_parsed = Json::parse(only_b);
  ASSERT_TRUE(b_parsed.is_ok()) << only_b;
  const Json* b_events = b_parsed.value().find("events");
  ASSERT_NE(b_events, nullptr);
  ASSERT_EQ(b_events->items().size(), 2u);  // attach b, detach b.
  for (const Json& event : b_events->items()) {
    EXPECT_EQ(event.string_or("tenant", ""), "b");
  }
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, ControlHealthAndWatchAcknowledgements) {
  Daemon daemon(env->base_fs, small_options(2, 64));
  ControlDispatcher dispatcher(daemon);
  // Wait for both workers' asynchronous worker_start appends so the
  // cursor arithmetic below is race-free.
  while (daemon.telemetry().journal().emitted() < 2) {
    std::this_thread::yield();
  }
  const std::string health = dispatcher.handle_line("{\"type\":\"health\"}");
  const Result<Json> parsed = Json::parse(health);
  ASSERT_TRUE(parsed.is_ok()) << health;
  ASSERT_TRUE(parsed.value().bool_or("ok", false));
  const Json* verdict = parsed.value().find("health");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->string_or("level", ""), "ok");
  EXPECT_EQ(verdict->number_or("workers", 0.0), 2.0);
  EXPECT_FALSE(verdict->string_or("reason", "").empty());
  // Without a streaming transport (the in-process dispatcher), `watch`
  // degrades to a plain acknowledgement.
  const std::string plain = dispatcher.handle_line("{\"type\":\"watch\"}");
  EXPECT_NE(plain.find("\"streaming\":false"), std::string::npos) << plain;
  // With one, the subscription carries the tenant filter and a cursor
  // defaulting to "now" (nothing historical replayed).
  dispatcher.handle_line("{\"type\":\"attach\",\"tenant\":\"w\"}");
  WatchSubscription sub;
  const std::string streamed = dispatcher.handle_line(
      "{\"type\":\"watch\",\"tenant\":\"w\"}", &sub);
  EXPECT_NE(streamed.find("\"streaming\":true"), std::string::npos);
  EXPECT_TRUE(sub.requested);
  EXPECT_EQ(sub.tenant, "w");
  EXPECT_EQ(sub.cursor, daemon.telemetry().journal().emitted());
  // An explicit cursor wins over the default.
  WatchSubscription rewound;
  dispatcher.handle_line("{\"type\":\"watch\",\"cursor\":0}", &rewound);
  EXPECT_EQ(rewound.cursor, 0u);
  EXPECT_TRUE(rewound.tenant.empty());
  daemon.shutdown(/*drain_first=*/true);
}

TEST_F(DaemonTest, MetricsRequestFiltersByTenantAndRejectsUnknown) {
  Daemon daemon(env->base_fs, small_options(1, 64));
  ControlDispatcher dispatcher(daemon);
  dispatcher.handle_line("{\"type\":\"attach\",\"tenant\":\"known\"}");
  // Tenant-scoped: the tenant's engine registry, not the daemon's.
  const std::string scoped = dispatcher.handle_line(
      "{\"type\":\"metrics\",\"tenant\":\"known\"}");
  EXPECT_EQ(scoped.rfind("{\"ok\":true", 0), 0u) << scoped;
  EXPECT_NE(scoped.find("ops_observed_total"), std::string::npos);
  EXPECT_EQ(scoped.find("daemon_ops_ingested_total"), std::string::npos);
  // Unscoped: the daemon-wide registry.
  const std::string wide = dispatcher.handle_line("{\"type\":\"metrics\"}");
  EXPECT_NE(wide.find("daemon_ops_ingested_total"), std::string::npos);
  // Unknown tenants fail with a structured, machine-matchable code.
  const std::string unknown = dispatcher.handle_line(
      "{\"type\":\"metrics\",\"tenant\":\"ghost\"}");
  EXPECT_EQ(unknown.rfind("{\"ok\":false", 0), 0u) << unknown;
  EXPECT_NE(unknown.find("\"code\":\"not_found\""), std::string::npos)
      << unknown;
  daemon.shutdown(/*drain_first=*/true);
}

// --- the parity gate ---------------------------------------------------

TEST_F(DaemonTest, EightTenantParityWithInProcessRuns) {
  std::vector<sim::SampleSpec> samples;
  const std::vector<sim::SampleSpec> zoo = sim::table1_samples(1);
  for (std::size_t i = 0; i < 6; ++i) {
    samples.push_back(zoo[(i * zoo.size()) / 6]);
  }
  std::vector<sim::BenignWorkload> benign = sim::all_benign_workloads();
  if (benign.size() > 4) benign.resize(4);

  DaemonOptions options = small_options(4, 4096);
  Daemon daemon(env->base_fs, options);
  ControlDispatcher dispatcher(daemon);
  // A live watch subscriber rides the whole run over the socket
  // transport: streaming telemetry must be observation-only — the
  // parity gate below still demands bit-identical scoreboards.
  const std::string watch_path =
      "/tmp/cryptodropd_parity_" + std::to_string(::getpid()) + ".sock";
  ServerOptions server_options;
  server_options.frame_interval_ms = 10;
  SocketServer server(daemon, watch_path, server_options);
  ASSERT_TRUE(server.start().is_ok());
  std::atomic<std::uint64_t> frames_seen{0};
  std::atomic<bool> watch_ok{false};
  std::thread watch_thread([&] {
    StreamClient watcher(watch_path);
    if (!watcher.connected()) return;
    if (!watcher.send_line("{\"type\":\"watch\",\"cursor\":0}")) return;
    std::string frame;
    if (!watcher.read_line(&frame)) return;
    watch_ok.store(frame.rfind("{\"ok\":true,\"watch\"", 0) == 0);
    while (watcher.read_line(&frame)) frames_seen.fetch_add(1);
  });
  const harness::TransportFactory factory = [&dispatcher] {
    return harness::Transport(
        [&dispatcher](const std::string& line) {
          return dispatcher.handle_line(line);
        });
  };
  harness::DaemonParityOptions parity;
  parity.concurrent_tenants = 8;
  const harness::DaemonParityReport report = harness::run_daemon_parity(
      *env, samples, benign, /*benign_seed=*/9, core::ScoringConfig{},
      factory, parity);
  EXPECT_EQ(report.trials.size(), samples.size() + benign.size());
  for (const harness::DaemonParityTrial& trial : report.trials) {
    EXPECT_TRUE(trial.match) << trial.label << " (" << trial.tenant
                             << ") diverged:\n golden: " << trial.golden_line
                             << "\n daemon: " << trial.daemon_line;
  }
  EXPECT_TRUE(report.all_match());
  // At least one ransomware trial must have carried a suspension
  // verdict through the daemon, or the gate proves nothing.
  bool any_detected = false;
  for (const harness::DaemonParityTrial& trial : report.trials) {
    any_detected = any_detected || trial.golden_detected;
  }
  EXPECT_TRUE(any_detected);
  daemon.shutdown(/*drain_first=*/true);
  server.wait();  // The serve loop exits once the daemon is down...
  watch_thread.join();  // ...which ends the watcher's stream (EOF).
  EXPECT_TRUE(watch_ok.load());
  EXPECT_GT(frames_seen.load(), 0u);
}

// --- socket transport --------------------------------------------------

TEST_F(DaemonTest, SocketServerRoundTripAndShutdown) {
  const std::string path =
      "/tmp/cryptodropd_test_" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(env->base_fs, small_options(2, 256));
  SocketServer server(daemon, path);
  ASSERT_TRUE(server.start().is_ok());
  {
    DaemonClient client(path);
    const Result<std::string> pong = client.request("{\"type\":\"ping\"}");
    ASSERT_TRUE(pong.is_ok());
    EXPECT_EQ(pong.value(), "{\"ok\":true,\"pong\":true}");
    ASSERT_TRUE(
        client.request("{\"type\":\"attach\",\"tenant\":\"sock\"}").is_ok());
    ASSERT_TRUE(client
                    .request("{\"type\":\"spawn\",\"tenant\":\"sock\","
                             "\"pid\":100,\"name\":\"w\",\"parent\":0}")
                    .is_ok());
    const Result<std::string> verdicts =
        client.request("{\"type\":\"verdicts\",\"tenant\":\"sock\"}");
    ASSERT_TRUE(verdicts.is_ok());
    EXPECT_EQ(verdicts.value().rfind("{\"ok\":true,\"scoreboard\"", 0), 0u)
        << verdicts.value();
    const Result<std::string> stopped =
        client.request("{\"type\":\"shutdown\",\"drain\":true}");
    ASSERT_TRUE(stopped.is_ok());
    EXPECT_EQ(stopped.value(), "{\"ok\":true,\"stopped\":true}");
  }
  server.wait();  // The serve loop exits once the daemon is down.
  EXPECT_TRUE(daemon.shutdown_complete());
}

TEST_F(DaemonTest, SocketOverlongLineGetsOneErrorThenClose) {
  const std::string path =
      "/tmp/cryptodropd_overlong_" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(env->base_fs, small_options(1, 64));
  SocketServer server(daemon, path);
  ASSERT_TRUE(server.start().is_ok());
  const std::uint64_t errors_before =
      counter_value(daemon, "daemon_control_errors_total");
  {
    StreamClient client(path);
    ASSERT_TRUE(client.connected());
    // One byte over the cap and no newline: the server must not wait
    // for the rest of the line.
    ASSERT_TRUE(client.send_raw(std::string(kMaxRequestLineBytes + 1, ' ')));
    std::string line;
    ASSERT_TRUE(client.read_line(&line));
    EXPECT_EQ(line, "{\"ok\":false,\"error\":\"request line exceeds " +
                        std::to_string(kMaxRequestLineBytes) +
                        " bytes\",\"code\":\"invalid_argument\"}");
    EXPECT_FALSE(client.read_line(&line)) << "connection left open: " << line;
  }
  EXPECT_EQ(counter_value(daemon, "daemon_control_errors_total"), errors_before + 1);
  // The server keeps serving other connections.
  DaemonClient client(path);
  const Result<std::string> pong = client.request("{\"type\":\"ping\"}");
  ASSERT_TRUE(pong.is_ok());
  EXPECT_EQ(pong.value(), "{\"ok\":true,\"pong\":true}");
  ASSERT_TRUE(client.request("{\"type\":\"shutdown\",\"drain\":true}").is_ok());
  server.wait();
}

// --- the watch stream --------------------------------------------------

TEST_F(DaemonTest, WatchStreamsEventAndStatsFramesThenClosesOnShutdown) {
  const std::string path =
      "/tmp/cryptodropd_watch_" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(env->base_fs, small_options(2, 256));
  ServerOptions options;
  options.frame_interval_ms = 10;
  SocketServer server(daemon, path, options);
  ASSERT_TRUE(server.start().is_ok());
  StreamClient watcher(path);
  ASSERT_TRUE(watcher.connected());
  ASSERT_TRUE(watcher.send_line("{\"type\":\"watch\",\"cursor\":0}"));
  std::string line;
  ASSERT_TRUE(watcher.read_line(&line));
  EXPECT_EQ(line.rfind("{\"ok\":true,\"watch\"", 0), 0u) << line;
  EXPECT_NE(line.find("\"streaming\":true"), std::string::npos) << line;
  // Drive journal activity over a second, plain control connection.
  DaemonClient control(path);
  ASSERT_TRUE(
      control.request("{\"type\":\"attach\",\"tenant\":\"w\"}").is_ok());
  ASSERT_TRUE(
      control.request("{\"type\":\"detach\",\"tenant\":\"w\"}").is_ok());
  bool saw_attach = false;
  bool saw_stats = false;
  while ((!saw_attach || !saw_stats) && watcher.read_line(&line)) {
    if (line.find("\"frame\":\"event\"") != std::string::npos &&
        line.find("\"kind\":\"tenant_attach\"") != std::string::npos) {
      saw_attach = true;
    }
    if (line.find("\"frame\":\"stats\"") != std::string::npos) {
      EXPECT_NE(line.find("\"queue_depth\""), std::string::npos) << line;
      EXPECT_NE(line.find("\"health\""), std::string::npos) << line;
      saw_stats = true;
    }
  }
  EXPECT_TRUE(saw_attach);
  EXPECT_TRUE(saw_stats);
  // Shutdown while the watch is live: the stream ends in a clean EOF,
  // not a hang or an error mid-frame.
  ASSERT_TRUE(
      control.request("{\"type\":\"shutdown\",\"drain\":true}").is_ok());
  while (watcher.read_line(&line)) {
  }
  server.wait();
  EXPECT_TRUE(daemon.shutdown_complete());
}

TEST_F(DaemonTest, WatchConservationEmittedEqualsDeliveredPlusShed) {
  const std::string path =
      "/tmp/cryptodropd_conserve_" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(env->base_fs, small_options(1, 256));
  ServerOptions options;
  options.frame_interval_ms = 5;
  SocketServer server(daemon, path, options);
  ASSERT_TRUE(server.start().is_ok());
  StreamClient watcher(path);
  ASSERT_TRUE(watcher.connected());
  // Subscribe from cursor 0: the stream owes us the journal's entire
  // history, so `emitted == delivered + shed` is checkable end to end.
  ASSERT_TRUE(watcher.send_line("{\"type\":\"watch\",\"cursor\":0}"));
  std::string line;
  ASSERT_TRUE(watcher.read_line(&line));
  ASSERT_EQ(line.rfind("{\"ok\":true,\"watch\"", 0), 0u) << line;
  DaemonClient control(path);
  for (int i = 0; i < 25; ++i) {
    const std::string tenant = "conserve_" + std::to_string(i);
    ASSERT_TRUE(
        control
            .request("{\"type\":\"attach\",\"tenant\":\"" + tenant + "\"}")
            .is_ok());
    ASSERT_TRUE(
        control
            .request("{\"type\":\"detach\",\"tenant\":\"" + tenant + "\"}")
            .is_ok());
  }
  // Read until the stream has caught up to the last detach before
  // shutting down — otherwise the whole burst lands between frame
  // ticks and is settled as shed, trivially satisfying the identity.
  std::uint64_t delivered = 0;
  bool caught_up = false;
  while (!caught_up && watcher.read_line(&line)) {
    if (line.rfind("{\"frame\":\"event\"", 0) == 0) {
      ++delivered;
      caught_up = line.find("\"kind\":\"tenant_detach\"") !=
                      std::string::npos &&
                  line.find("conserve_24") != std::string::npos;
    }
  }
  EXPECT_TRUE(caught_up);
  ASSERT_TRUE(
      control.request("{\"type\":\"shutdown\",\"drain\":true}").is_ok());
  while (watcher.read_line(&line)) {
    if (line.rfind("{\"frame\":\"event\"", 0) == 0) ++delivered;
  }
  server.wait();
  std::uint64_t shed = 0;
  for (const obs::CounterSnapshot& counter : daemon.metrics().counters) {
    if (counter.name == "daemon_watch_events_shed_total") {
      shed = counter.value;
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(delivered + shed, daemon.telemetry().journal().emitted())
      << "delivered=" << delivered << " shed=" << shed;
}

TEST_F(DaemonTest, IdleConnectionsAreEvictedButWatchersAreExempt) {
  const std::string path =
      "/tmp/cryptodropd_idle_" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(env->base_fs, small_options(1, 64));
  ServerOptions options;
  options.idle_timeout_ms = 50;
  options.frame_interval_ms = 10;
  SocketServer server(daemon, path, options);
  ASSERT_TRUE(server.start().is_ok());
  StreamClient watcher(path);
  ASSERT_TRUE(watcher.connected());
  ASSERT_TRUE(watcher.send_line("{\"type\":\"watch\"}"));
  std::string line;
  ASSERT_TRUE(watcher.read_line(&line));  // The ack.
  // A connection that never sends a byte is evicted at the deadline:
  // this read blocks until the server closes it (EOF), bounded by the
  // 50 ms idle timeout — a hang here fails the test's own timeout.
  StreamClient idle(path);
  ASSERT_TRUE(idle.connected());
  EXPECT_FALSE(idle.read_line(&line));
  std::uint64_t evicted = 0;
  for (const obs::CounterSnapshot& counter : daemon.metrics().counters) {
    if (counter.name == "daemon_conns_idle_closed_total") {
      evicted = counter.value;
    }
  }
  EXPECT_EQ(evicted, 1u);
  // The watcher outlived the deadline without sending anything further:
  // watch streams are write-mostly and exempt from the idle reaper.
  EXPECT_TRUE(watcher.read_line(&line)) << "watcher was evicted";
  DaemonClient control(path);
  ASSERT_TRUE(
      control.request("{\"type\":\"shutdown\",\"drain\":true}").is_ok());
  while (watcher.read_line(&line)) {
  }
  server.wait();
}

}  // namespace
}  // namespace cryptodrop::daemon
