// Robustness under deadlines, cancellation, and overload (ISSUE 10).
//
// The load-bearing guarantees:
//  * cooperative cancellation can land at ANY checkpoint of an
//    evaluation and the session stays semantically intact — re-running
//    the query answers exactly what a never-cancelled oracle answers,
//    on all 8 paper corpora;
//  * the service never runs a dead request: expired work is shed at
//    dequeue (and displaced from a full queue) while in-deadline
//    requests keep answering correctly;
//  * a client disconnect cancels its queued and in-flight requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/engine/axes.h"

namespace xcq::server {
namespace {

using testing::RandomXml;

// Tags t0/t1/t2 match RandomXml(seed, nodes, /*tag_count=*/3).
const char* kWorkQueries[] = {
    "//t0",
    "//t1/t2",
    "//t0[t1]",
    "//t2/parent::t1",
    "//t1[not(t2)]",
    "//t0/descendant::t2",
    "//t2/ancestor::t0",
    "//t0[t1/t2]",
};

std::string SmallXml() { return RandomXml(1234, 1500, 3); }

/// Large enough that a first-touch evaluation takes far longer than the
/// millisecond-scale deadlines the TCP tests arm. Built once.
const std::string& HeavyXml() {
  static const std::string xml = RandomXml(99, 40000, 3);
  return xml;
}

SessionOptions TortureOptions() {
  SessionOptions options;
  options.minimize_after_query = true;  // exercises the minimize phase
  return options;
}

/// A token-less task for `TrySubmitWork`.
WorkItem Work(std::string document, std::function<void()> run) {
  WorkItem item;
  item.document = std::move(document);
  item.run = std::move(run);
  return item;
}

/// An already-expired deadline: the steady-clock epoch (+1ns so the
/// token does not read it as "no deadline").
void ArmExpiredDeadline(CancelToken* token) {
  token->SetDeadline(
      CancelToken::Clock::time_point(std::chrono::nanoseconds(1)));
}

// --- Cancellation at every checkpoint --------------------------------------

/// Calibrates the checkpoint count of a clean run, then lands a
/// cancellation on a spread of those checkpoints — entry, early sweep,
/// mid-evaluation, minimize, and the final serialize-side polls — and
/// requires the requery to match the oracle bit-for-bit (tree counts:
/// the semantic result; DAG counts legitimately vary with split order).
TEST(CancellationTest, EveryCheckpointLeavesSessionCorrect) {
  const std::string xml = SmallXml();
  const std::string query = "//t0[t1/t2]";

  // Oracle: never-cancelled evaluation of the same query sequence.
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession oracle,
                           QuerySession::Open(xml, TortureOptions()));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome expected, oracle.Run(query));

  // Calibration: how many polls does a clean run make?
  uint64_t total_checks = 0;
  {
    XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                             QuerySession::Open(xml, TortureOptions()));
    CancelToken token;
    QueryControl control;
    control.cancel = &token;
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome clean,
                             session.Run(query, control));
    EXPECT_EQ(clean.selected_tree_nodes, expected.selected_tree_nodes);
    total_checks = token.checks();
  }
  ASSERT_GE(total_checks, 3u) << "expected polls in several phases";

  // Sample checkpoints across the whole run, ends included.
  std::vector<uint64_t> trip_points = {1, 2, total_checks};
  for (uint64_t i = 1; i <= 8; ++i) {
    trip_points.push_back(1 + (total_checks - 1) * i / 8);
  }
  for (const uint64_t trip : trip_points) {
    XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                             QuerySession::Open(xml, TortureOptions()));
    CancelToken token;
    token.CancelAfterChecks(trip);
    QueryControl control;
    control.cancel = &token;
    const Result<QueryOutcome> cancelled = session.Run(query, control);
    ASSERT_FALSE(cancelled.ok()) << "trip at check " << trip;
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
        << cancelled.status().ToString();
    // The torn-down run must not have bent the represented tree: the
    // requery (no token) answers exactly the oracle's result.
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome requery, session.Run(query));
    EXPECT_EQ(requery.selected_tree_nodes, expected.selected_tree_nodes)
        << "diverged after cancellation at check " << trip;
  }
}

/// The Appendix A query set for `corpus`, or structural queries over
/// TPC-D's fixed tag vocabulary (the paper ships no query set for it).
std::vector<std::string> CorpusQueries(std::string_view corpus) {
  const Result<xcq::corpus::QuerySet> set = xcq::corpus::QueriesFor(corpus);
  if (set.ok()) {
    return std::vector<std::string>(set->queries.begin(), set->queries.end());
  }
  return {"//lineitem", "//orders/O_ORDERKEY", "//lineitem[L_TAX]",
          "//supplier//S_NAME", "//T"};
}

TEST(CancellationTest, RequeryMatchesOracleOnAllCorpora) {
  xcq::corpus::GenerateOptions gen;
  gen.target_nodes = 6000;
  gen.seed = 7;
  for (const xcq::corpus::CorpusGenerator* corpus :
       xcq::corpus::AllCorpora()) {
    const std::string xml = corpus->Generate(gen);
    const std::vector<std::string> queries = CorpusQueries(corpus->name());
    SCOPED_TRACE(std::string(corpus->name()));
    XCQ_ASSERT_OK_AND_ASSIGN(
        QuerySession oracle,
        QuerySession::Open(xml, TortureOptions()));
    XCQ_ASSERT_OK_AND_ASSIGN(
        QuerySession session,
        QuerySession::Open(xml, TortureOptions()));
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(queries[i]);
      XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome expected,
                               oracle.Run(queries[i]));
      // Cancel somewhere early-to-mid-run (varying per query). When
      // the run finishes before the trip lands, that is fine too —
      // the result must then already be correct.
      CancelToken token;
      token.CancelAfterChecks(1 + 4 * i);
      QueryControl control;
      control.cancel = &token;
      const Result<QueryOutcome> attempt = session.Run(queries[i], control);
      if (attempt.ok()) {
        EXPECT_EQ(attempt->selected_tree_nodes,
                  expected.selected_tree_nodes);
      } else {
        EXPECT_EQ(attempt.status().code(), StatusCode::kCancelled)
            << attempt.status().ToString();
      }
      XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome requery,
                               session.Run(queries[i]));
      EXPECT_EQ(requery.selected_tree_nodes, expected.selected_tree_nodes);
    }
  }
}

/// A shared BATCH sweeps through the same kernels as a QUERY, so it
/// polls the token inside its sweeps too: a clean run makes more polls
/// than its entry check plus one per lockstep round, a trip at any poll
/// (inside a kernel or not) fails the batch with kCancelled, and the
/// batch rerun without a token shares again and answers what per-query
/// evaluation answers.
TEST(CancellationTest, SharedBatchSweepsPollAndUnwind) {
  XCQ_ASSERT_OK_AND_ASSIGN(const xcq::corpus::CorpusGenerator* generator,
                           xcq::corpus::FindCorpus("SwissProt"));
  xcq::corpus::GenerateOptions gen;
  gen.target_nodes = 20000;
  gen.seed = 11;
  const std::string xml = generator->Generate(gen);
  const std::vector<std::string> queries = CorpusQueries("SwissProt");
  ASSERT_EQ(queries.size(), 5u);
  size_t rounds = 0;
  for (const std::string& text : queries) {
    XCQ_ASSERT_OK_AND_ASSIGN(const xpath::Query query,
                             xpath::ParseQuery(text));
    XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                             algebra::Compile(query));
    rounds = std::max(rounds, plan.ops.size());
  }

  // Oracle: the same queries one at a time.
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession oracle,
                           QuerySession::Open(xml, SessionOptions{}));
  std::vector<uint64_t> expected;
  for (const std::string& query : queries) {
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome, oracle.Run(query));
    expected.push_back(outcome.selected_tree_nodes);
  }
  const auto expect_oracle = [&](const std::vector<QueryOutcome>& got) {
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].selected_tree_nodes, expected[i]) << queries[i];
    }
  };

  // Warm to the split fixpoint, where every batch shares.
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(xml, SessionOptions{}));
  for (int round = 0; round < 2; ++round) {
    for (const std::string& query : queries) {
      XCQ_ASSERT_OK(session.Run(query).status());
    }
  }

  uint64_t total_checks = 0;
  {
    CancelToken token;
    QueryControl control;
    control.cancel = &token;
    const uint64_t shared_before = session.shared_batch_count();
    XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> clean,
                             session.RunBatch(queries, control));
    ASSERT_EQ(session.shared_batch_count(), shared_before + 1)
        << "the warm batch did not share";
    expect_oracle(clean);
    total_checks = token.checks();
  }
  EXPECT_GT(total_checks, rounds + 1) << "no poll inside the shared sweeps";

  for (uint64_t trip = 1; trip <= total_checks; ++trip) {
    SCOPED_TRACE("trip at check " + std::to_string(trip));
    CancelToken token;
    token.CancelAfterChecks(trip);
    QueryControl control;
    control.cancel = &token;
    const Result<std::vector<QueryOutcome>> cancelled =
        session.RunBatch(queries, control);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
        << cancelled.status().ToString();
    const uint64_t shared_before = session.shared_batch_count();
    XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> rerun,
                             session.RunBatch(queries));
    EXPECT_EQ(session.shared_batch_count(), shared_before + 1);
    expect_oracle(rerun);
  }
}

/// A shared attempt stopped by the token ends the batch: RunBatch
/// answers with the token's error at once. It is not a clash, so it
/// counts no fallback and starts no per-query loop.
TEST(CancellationTest, CancelledSharedBatchIsNoFallback) {
  XCQ_ASSERT_OK_AND_ASSIGN(const xcq::corpus::CorpusGenerator* generator,
                           xcq::corpus::FindCorpus("SwissProt"));
  xcq::corpus::GenerateOptions gen;
  gen.target_nodes = 20000;
  gen.seed = 11;
  const std::vector<std::string> queries = CorpusQueries("SwissProt");
  ASSERT_EQ(queries.size(), 5u);
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession session,
      QuerySession::Open(generator->Generate(gen), SessionOptions{}));
  for (int round = 0; round < 2; ++round) {
    for (const std::string& query : queries) {
      XCQ_ASSERT_OK(session.Run(query).status());
    }
  }

  CancelToken token;
  token.CancelAfterChecks(5);
  QueryControl control;
  control.cancel = &token;
  const Result<std::vector<QueryOutcome>> cancelled =
      session.RunBatch(queries, control);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status().ToString();
  EXPECT_EQ(session.shared_batch_fallback_count(), 0u);
  EXPECT_EQ(session.shared_batch_count(), 0u);
}

/// A downward sweep polls its token every 4096 decided positions, inside
/// a frontier walk too. The instance: a chain of 5,000 vertices and
/// 60,000 leaves under the root, so descendant from the chain's head
/// walks the chain (about 10,000 edges, within the budget of a fifth of
/// the 65,000) and decides 5,000 positions. A trip at the walk's poll or at
/// the pre-commit poll aborts with kCancelled and leaves the instance
/// as it was; the sweep then runs clean.
TEST(CancellationTest, TripInsideDownwardWalkLeavesInstanceIntact) {
  constexpr VertexId kChain = 5000;
  constexpr VertexId kLeaves = 60000;
  Instance instance;
  for (VertexId v = 0; v < kChain + kLeaves + 1; ++v) instance.AddVertex();
  std::vector<Edge> root_edges = {{0, 1}};
  for (VertexId v = 0; v + 1 < kChain; ++v) {
    const Edge next{v + 1, 1};
    instance.SetEdges(v, {&next, 1});
  }
  for (VertexId v = kChain; v < kChain + kLeaves; ++v) {
    root_edges.push_back({v, 1});
  }
  const VertexId root = kChain + kLeaves;
  instance.SetEdges(root, root_edges);
  instance.SetRoot(root);
  const engine::SweepLane lane{.src = instance.AddRelation("src"),
                               .dst = instance.AddRelation("dst")};
  instance.SetBit(lane.src, 0);
  const Instance before = instance;

  const auto sweep = [&](Instance* target, const CancelToken* token,
                         engine::AxisStats* stats) {
    return engine::SweepDownward(target, xpath::Axis::kDescendant,
                                 {&lane, 1}, engine::OnClash::kSplit, stats,
                                 token);
  };
  {
    Instance clean = before;
    CancelToken token;
    engine::AxisStats stats;
    XCQ_ASSERT_OK(sweep(&clean, &token, &stats));
    EXPECT_EQ(stats.visited, kChain) << "the sweep did not walk the chain";
    EXPECT_EQ(token.checks(), 2u) << "one poll in the walk, one pre-commit";
  }
  for (const uint64_t trip : {1, 2}) {
    SCOPED_TRACE("trip at check " + std::to_string(trip));
    CancelToken token;
    token.CancelAfterChecks(trip);
    const Status cancelled = sweep(&instance, &token, nullptr);
    EXPECT_EQ(cancelled.code(), StatusCode::kCancelled)
        << cancelled.ToString();
    testing::ExpectSameChildLists(instance, before);
    EXPECT_EQ(instance.RelationBits(lane.dst).Count(), 0u);
  }
  XCQ_ASSERT_OK(sweep(&instance, nullptr, nullptr));
  EXPECT_EQ(instance.RelationBits(lane.dst).Count(), kChain - 1);
  EXPECT_FALSE(instance.Test(lane.dst, 0));
}

// --- Deadlines in the session ----------------------------------------------

TEST(DeadlineTest, ExpiredDeadlineFailsFastAndSessionStaysUsable) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(SmallXml(), TortureOptions()));
  CancelToken token;
  ArmExpiredDeadline(&token);
  QueryControl control;
  control.cancel = &token;
  const Result<QueryOutcome> expired = session.Run("//t0", control);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded)
      << expired.status().ToString();

  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession oracle,
                           QuerySession::Open(SmallXml(), TortureOptions()));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome expected, oracle.Run("//t0"));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome requery, session.Run("//t0"));
  EXPECT_EQ(requery.selected_tree_nodes, expected.selected_tree_nodes);
}

TEST(DeadlineTest, MidFlightDeadlineUnwindsHeavyEvaluation) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(HeavyXml(), TortureOptions()));
  CancelToken token;
  token.SetTimeout(std::chrono::milliseconds(1));
  QueryControl control;
  control.cancel = &token;
  // First touch of a 40k-node document: parse + compress + evaluate is
  // orders of magnitude past 1ms, so the deadline lands mid-flight.
  const Result<QueryOutcome> result =
      session.Run("//t0/descendant::t2", control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  // The session survives and answers correctly afterwards.
  XCQ_ASSERT_OK(session.Run("//t0").status());
}

// --- Shedding in the service ------------------------------------------------

/// Blocks the (single) worker until released, so tasks queued behind it
/// have a deterministic window in which to die.
class WorkerPlug {
 public:
  std::function<void()> Task() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      started_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    };
  }
  void AwaitStarted() {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [this] { return started_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable started_cv_;
  std::condition_variable release_cv_;
  bool started_ = false;
  bool released_ = false;
};

TEST(SheddingTest, DeadWorkIsShedAtDequeueNeverRun) {
  DocumentStore store;
  ServiceOptions options;
  options.worker_threads = 1;
  QueryService service(&store, options);

  WorkerPlug plug;
  ASSERT_TRUE(service.TrySubmitWork(Work("", plug.Task())));
  plug.AwaitStarted();

  // Three requests queue behind the plug with already-expired
  // deadlines; their run closures must NEVER execute.
  std::atomic<int> ran{0};
  std::atomic<int> shed{0};
  std::vector<std::shared_ptr<CancelToken>> tokens;
  for (int i = 0; i < 3; ++i) {
    WorkItem item;
    item.document = "doc";
    auto token = std::make_shared<CancelToken>();
    ArmExpiredDeadline(token.get());
    tokens.push_back(token);
    item.token = std::move(token);
    item.run = [&ran] { ++ran; };
    item.shed = [&shed](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
      ++shed;
    };
    ASSERT_TRUE(service.TrySubmitWork(std::move(item)));
  }
  // One live request behind them must still run.
  std::atomic<bool> live_ran{false};
  ASSERT_TRUE(
      service.TrySubmitWork(Work("doc", [&live_ran] { live_ran = true; })));

  plug.Release();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while ((shed.load() < 3 || !live_ran.load()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 0) << "a dead request was executed";
  EXPECT_EQ(shed.load(), 3);
  EXPECT_TRUE(live_ran.load());
  EXPECT_EQ(service.shed_total(), 3u);
  uint64_t doc_shed = 0, doc_cancelled = 0;
  service.ShedForDocument("doc", &doc_shed, &doc_cancelled);
  EXPECT_EQ(doc_shed, 3u);
  EXPECT_EQ(doc_cancelled, 0u);
}

TEST(SheddingTest, FullQueueDisplacesDeadTaskForLiveWork) {
  DocumentStore store;
  ServiceOptions options;
  options.worker_threads = 1;
  options.queue_depth = 2;
  QueryService service(&store, options);

  WorkerPlug plug;
  ASSERT_TRUE(service.TrySubmitWork(Work("", plug.Task())));
  plug.AwaitStarted();

  // Fill the queue: one dead task, one live one.
  std::atomic<int> dead_shed{0};
  {
    WorkItem dead;
    dead.document = "doc";
    auto token = std::make_shared<CancelToken>();
    token->Cancel();  // client gone
    dead.token = std::move(token);
    dead.run = [] { FAIL() << "dead task executed"; };
    dead.shed = [&dead_shed](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kCancelled);
      ++dead_shed;
    };
    ASSERT_TRUE(service.TrySubmitWork(std::move(dead)));
  }
  std::atomic<int> live_ran{0};
  ASSERT_TRUE(
      service.TrySubmitWork(Work("doc", [&live_ran] { ++live_ran; })));

  // Queue is now full. A fresh live submission must displace the dead
  // task (shedding it on THIS thread) instead of being refused...
  ASSERT_TRUE(
      service.TrySubmitWork(Work("doc", [&live_ran] { ++live_ran; })));
  EXPECT_EQ(dead_shed.load(), 1);
  // ...and with only live tasks left, the next submission is refused.
  EXPECT_FALSE(service.TrySubmitWork(Work("doc", [] {})));
  EXPECT_GE(service.rejected(), 1u);

  plug.Release();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (live_ran.load() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live_ran.load(), 2);
  EXPECT_EQ(service.cancelled_total(), 1u);
  uint64_t doc_shed = 0, doc_cancelled = 0;
  service.ShedForDocument("doc", &doc_shed, &doc_cancelled);
  EXPECT_EQ(doc_cancelled, 1u);
}

// --- Protocol: TIMEOUT clause and batch bounds ------------------------------

TEST(ProtocolTest, TimeoutClauseParses) {
  XCQ_ASSERT_OK_AND_ASSIGN(Request query,
                           ParseRequest("QUERY bib TIMEOUT 250 //a/b"));
  EXPECT_EQ(query.timeout_ms, 250u);
  EXPECT_EQ(query.query, "//a/b");
  EXPECT_EQ(query.name, "bib");

  XCQ_ASSERT_OK_AND_ASSIGN(Request batch,
                           ParseRequest("BATCH bib 3 TIMEOUT 1000"));
  EXPECT_EQ(batch.timeout_ms, 1000u);
  EXPECT_EQ(batch.batch_size, 3u);

  // No clause: no deadline.
  XCQ_ASSERT_OK_AND_ASSIGN(Request plain, ParseRequest("QUERY bib //a"));
  EXPECT_EQ(plain.timeout_ms, 0u);

  for (const char* bad : {"QUERY bib TIMEOUT 0 //a", "QUERY bib TIMEOUT //a",
                          "QUERY bib TIMEOUT abc //a",
                          "QUERY bib TIMEOUT 3600001 //a",
                          "BATCH bib 2 TIMEOUT 0", "BATCH bib 2 TIMEOUT x",
                          // Signs are not digits.
                          "QUERY bib TIMEOUT +5 //a",
                          "QUERY bib TIMEOUT -18446744073709551615 //a",
                          "BATCH bib +2", "BATCH bib -18446744073709551615"}) {
    const Result<Request> result = ParseRequest(bad);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ProtocolTest, OversizedBatchAnswersWithoutConsumingBody) {
  DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("bib", testing::BibExampleXml()));
  QueryService service(&store, ServiceOptions{1});
  HandlerOptions options;
  options.max_batch = 2;
  // The over-limit header is answered immediately and consumes no body
  // lines: the next line is a fresh request, not a swallowed query.
  const std::vector<std::string> output =
      testing::Converse(&store, &service,
                        {"BATCH bib 3", "QUERY bib //paper/author",
                         "BATCH bib 2", "//paper", "//book", "QUIT"},
                        options);
  ASSERT_EQ(output.size(), 6u);
  EXPECT_EQ(output[0].rfind("ERR InvalidArgument", 0), 0u) << output[0];
  EXPECT_NE(output[0].find("limit"), std::string::npos) << output[0];
  EXPECT_EQ(output[1].rfind("OK dag=", 0), 0u) << output[1];
  EXPECT_EQ(output[2], "OK 2");  // an in-limit BATCH still works
  EXPECT_EQ(output[5], "OK bye");
}

TEST(ProtocolTest, DefaultDeadlineAppliesToDeadlinelessRequests) {
  DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("heavy", HeavyXml()));
  QueryService service(&store, ServiceOptions{1});
  HandlerOptions options;
  options.default_deadline_ms = 1;  // first touch of 40k nodes takes longer
  const std::vector<std::string> output =
      testing::Converse(&store, &service,
                        {"QUERY heavy //t0/descendant::t2"}, options);
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0].rfind("ERR DeadlineExceeded", 0), 0u) << output[0];
}

// --- TCP: deadlines, shedding, and disconnect over real sockets -------------

/// Blocking loopback client (the protocol's test harness shape).
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& line) {
    const std::string framed = line + "\n";
    return ::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(framed.size());
  }

  bool ReadLine(std::string* line) {
    line->clear();
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// One request, whole response (`OK <n>` detail lines included).
  std::vector<std::string> Ask(const std::string& request) {
    std::vector<std::string> response;
    if (!Send(request)) return response;
    std::string line;
    if (!ReadLine(&line)) return response;
    response.push_back(line);
    unsigned long long details = 0;
    if (std::sscanf(line.c_str(), "OK %llu", &details) == 1) {
      for (unsigned long long i = 0; i < details; ++i) {
        if (!ReadLine(&line)) break;
        response.push_back(line);
      }
    }
    return response;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(TcpResilienceTest, TimeoutAnswersDeadlineExceededAndWorkerSurvives) {
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.store().LoadXml("heavy", HeavyXml()));
  XCQ_ASSERT_OK(server.Start());

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());

  // A batch whose first touch of the 40k-node document (parse +
  // compress alone is several ms) takes far past the minimum 1ms
  // deadline: the whole batch answers one canonical error.
  ASSERT_TRUE(client.Send("BATCH heavy 8 TIMEOUT 1"));
  for (const char* query : kWorkQueries) ASSERT_TRUE(client.Send(query));
  std::string reply;
  ASSERT_TRUE(client.ReadLine(&reply));
  EXPECT_EQ(reply.rfind("ERR DeadlineExceeded", 0), 0u) << reply;

  // The worker that unwound is immediately reusable: a generous
  // deadline answers correctly on the same connection.
  const std::vector<std::string> ok =
      client.Ask("QUERY heavy TIMEOUT 60000 //t0");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].rfind("OK dag=", 0), 0u) << ok[0];

  // STATS carries the appended shed=/cancelled= fields.
  const std::vector<std::string> stats = client.Ask("STATS");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_NE(stats[1].find(" shed="), std::string::npos) << stats[1];
  EXPECT_NE(stats[1].find(" cancelled="), std::string::npos) << stats[1];
  server.Stop();
}

TEST(TcpResilienceTest, ExpiredQueueStormIsShedWhileLiveWorkAnswers) {
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  options.queue_depth = 16;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.store().LoadXml("heavy", HeavyXml()));
  XCQ_ASSERT_OK(server.Start());

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Head-of-line: a slow first-touch batch occupies the only worker.
  ASSERT_TRUE(client.Send("BATCH heavy 8"));
  for (const char* query : kWorkQueries) ASSERT_TRUE(client.Send(query));
  // A storm of 1ms-deadline queries expires while queued behind it;
  // every one must be shed at dequeue (never evaluated) yet still
  // answer its owed in-order ERR line.
  constexpr int kStorm = 8;
  for (int i = 0; i < kStorm; ++i) {
    ASSERT_TRUE(client.Send("QUERY heavy TIMEOUT 1 //t0"));
  }
  // A live request rides behind the storm.
  ASSERT_TRUE(client.Send("QUERY heavy TIMEOUT 60000 //t1/t2"));

  // Replies come back strictly in order: the batch, the storm, the
  // live query.
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
  unsigned long long details = 0;
  ASSERT_EQ(std::sscanf(line.c_str(), "OK %llu", &details), 1);
  for (unsigned long long i = 0; i < details; ++i) {
    ASSERT_TRUE(client.ReadLine(&line));
  }
  for (int i = 0; i < kStorm; ++i) {
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind("ERR DeadlineExceeded", 0), 0u) << line;
  }
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("OK dag=", 0), 0u) << line;

  // The storm was shed, not executed: the worker evaluated the batch
  // and the live query only.
  EXPECT_GT(server.service().shed_total(), 0u);
  const std::vector<std::string> stats = client.Ask("STATS");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_NE(stats[1].find(" shed="), std::string::npos) << stats[1];
  EXPECT_EQ(stats[1].find(" shed=0 "), std::string::npos) << stats[1];
  server.Stop();
}

TEST(TcpResilienceTest, DisconnectCancelsQueuedAndInflightRequests) {
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  options.queue_depth = 16;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.store().LoadXml("heavy", HeavyXml()));
  XCQ_ASSERT_OK(server.Start());

  {
    RawClient doomed(server.port());
    ASSERT_TRUE(doomed.connected());
    // A quick query first: its reply, written to the closed socket,
    // is how the server discovers the client is gone (RST) while the
    // batch behind it is still mid-evaluation.
    ASSERT_TRUE(doomed.Send("QUERY heavy //t0"));
    // Then a slow batch plus queued queries; vanish without reading a
    // single reply.
    ASSERT_TRUE(doomed.Send("BATCH heavy 8"));
    for (const char* query : kWorkQueries) ASSERT_TRUE(doomed.Send(query));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(doomed.Send("QUERY heavy //t1/t2"));
    }
    doomed.Close();
  }

  // The disconnect cancels the in-flight evaluation (it aborts at its
  // next checkpoint) and the queued requests (shed at dequeue).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.service().cancelled_total() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(server.service().cancelled_total(), 0u);

  // The server shrugs it off: a fresh client gets correct answers.
  RawClient fresh(server.port());
  ASSERT_TRUE(fresh.connected());
  const std::vector<std::string> ok = fresh.Ask("QUERY heavy //t0");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].rfind("OK dag=", 0), 0u) << ok[0];
  server.Stop();
}

}  // namespace
}  // namespace xcq::server
