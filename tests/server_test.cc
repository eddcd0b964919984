// The query daemon, bottom to top: DocumentStore caching and eviction,
// QueryService pool scheduling, protocol parsing, the PipelinedHandler
// conversation, and the TCP front end over real sockets.
//
// The two load-bearing guarantees (ISSUE 2 acceptance criteria):
//  * a `.xcqi`-preloaded document answers a 100-query BATCH with ZERO
//    scans of the source XML, and
//  * a concurrent query storm from many client threads returns results
//    identical to single-threaded `QuerySession` evaluation.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"

namespace xcq::server {
namespace {

// Tags t0/t1/t2 match testing::RandomXml(seed, nodes, /*tag_count=*/3).
const char* kStormQueries[] = {
    "//t0",
    "//t1/t2",
    "//t0[t1]",
    "//t2/parent::t1",
    "//t1[not(t2)]",
    "//t0/descendant::t2",
    "//t1/following-sibling::t2",
    "//t2/ancestor::t0",
    "/descendant-or-self::t1[t0 or t2]",
    "//t0[t1/t2]",
};

std::string StormXml() { return testing::RandomXml(1234, 1500, 3); }

/// Evaluates `job` on a pool worker through the admission-controlled
/// path and blocks for the response (the service must be unbounded).
QueryResponse ExecuteOnPool(QueryService* service, QueryJob job) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> response = promise->get_future();
  WorkItem item;
  item.document = job.document;
  item.run = [service, promise, job = std::move(job)] {
    promise->set_value(service->Execute(job));
  };
  EXPECT_TRUE(service->TrySubmitWork(std::move(item)));
  return response.get();
}

/// Single-threaded reference: tree-node count per query. (Tree counts
/// are the semantic result — what decompression would materialize.
/// DAG-vertex counts can differ run to run because the split state of
/// the accumulated instance depends on evaluation order.)
std::map<std::string, uint64_t> ReferenceCounts(const std::string& xml) {
  auto session = QuerySession::Open(xml);
  EXPECT_TRUE(session.ok());
  std::map<std::string, uint64_t> counts;
  for (const char* query : kStormQueries) {
    auto outcome = session->Run(query);
    EXPECT_TRUE(outcome.ok()) << query << ": " << outcome.status();
    counts[query] = outcome->selected_tree_nodes;
  }
  return counts;
}

// --- DocumentStore ---------------------------------------------------------

TEST(DocumentStoreTest, LoadQueryEvictLifecycle) {
  DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("bib", testing::BibExampleXml()));
  EXPECT_EQ(store.document_count(), 1u);

  std::shared_ptr<StoredDocument> doc = store.Find("bib");
  ASSERT_NE(doc, nullptr);
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                           doc->Query("//paper/author"));
  EXPECT_EQ(outcome.selected_tree_nodes, 2u);

  const std::vector<DocumentInfo> stats = store.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "bib");
  EXPECT_EQ(stats[0].queries_served, 1u);
  EXPECT_TRUE(stats[0].has_source);
  EXPECT_GT(stats[0].memory_bytes, 0u);

  EXPECT_TRUE(store.Evict("bib"));
  EXPECT_FALSE(store.Evict("bib"));
  EXPECT_EQ(store.Find("bib"), nullptr);
}

TEST(DocumentStoreTest, FindUnknownIsNull) {
  DocumentStore store;
  EXPECT_EQ(store.Find("nope"), nullptr);
}

TEST(DocumentStoreTest, CapacityEvictsLeastRecentlyUsed) {
  StoreOptions options;
  options.capacity_bytes = 1;  // anything with a footprint is over budget
  DocumentStore store(options);
  XCQ_ASSERT_OK(store.LoadXml("a", testing::BibExampleXml()));
  XCQ_ASSERT_OK(store.LoadXml("b", testing::BibExampleXml()));
  // Queries give both documents instances (and so footprints); "a" is
  // now least recently used.
  ASSERT_NE(store.Find("a"), nullptr);
  XCQ_ASSERT_OK(store.Find("a")->Query("//paper").status());
  XCQ_ASSERT_OK(store.Find("b")->Query("//paper").status());

  XCQ_ASSERT_OK(store.LoadXml("c", testing::BibExampleXml()));
  EXPECT_EQ(store.Find("a"), nullptr) << "LRU document should be evicted";
  // The newest document always survives.
  EXPECT_NE(store.Find("c"), nullptr);
}

TEST(DocumentStoreTest, LoadFileSniffsXcqiVersusXml) {
  const std::string xml = testing::BibExampleXml();
  CompressOptions copts;  // kAllTags
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance instance, CompressXml(xml, copts));
  const std::string xcqi_path = ::testing::TempDir() + "/sniff_test.xcqi";
  const std::string xml_path = ::testing::TempDir() + "/sniff_test.xml";
  XCQ_ASSERT_OK(SaveInstance(instance, xcqi_path));
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, xml));

  DocumentStore store;
  XCQ_ASSERT_OK(store.LoadFile("compressed", xcqi_path));
  XCQ_ASSERT_OK(store.LoadFile("raw", xml_path));
  const std::vector<DocumentInfo> stats = store.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_FALSE(stats[0].has_source) << "compressed: instance-only";
  EXPECT_TRUE(stats[1].has_source) << "raw: XML retained";
  std::remove(xcqi_path.c_str());
  std::remove(xml_path.c_str());
}

// --- QueryService ----------------------------------------------------------

TEST(QueryServiceTest, ExecuteUnknownDocumentIsNotFound) {
  DocumentStore store;
  QueryService service(&store, ServiceOptions{2});
  QueryJob job;
  job.document = "ghost";
  job.queries = {"//a"};
  EXPECT_EQ(service.Execute(job).status().code(), StatusCode::kNotFound);
}

TEST(QueryServiceTest, SubmittedJobResolvesOnPoolThread) {
  DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("bib", testing::BibExampleXml()));
  QueryService service(&store, ServiceOptions{2});
  QueryJob job;
  job.document = "bib";
  job.queries = {"//paper/author"};
  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> outcomes,
                           ExecuteOnPool(&service, std::move(job)));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].selected_tree_nodes, 2u);
  EXPECT_EQ(service.jobs_submitted(), 1u);
}

TEST(QueryServiceTest, ConcurrentStormMatchesSingleThreaded) {
  const std::string xml = StormXml();
  const std::map<std::string, uint64_t> reference = ReferenceCounts(xml);

  DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("doc", xml));
  QueryService service(&store, ServiceOptions{4});

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 30;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const char* query =
            kStormQueries[(t + i) % std::size(kStormQueries)];
        QueryJob job;
        job.document = "doc";
        job.queries = {query};
        const QueryResponse response =
            ExecuteOnPool(&service, std::move(job));
        if (!response.ok()) {
          ++failures;
          continue;
        }
        if (response->front().selected_tree_nodes !=
            reference.at(query)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent evaluation diverged from single-threaded results";
  XCQ_ASSERT_OK(store.Find("doc")->Query("//t0").status());
}

TEST(QueryServiceTest, BatchMatchesSequentialEvaluation) {
  const std::string xml = StormXml();
  std::vector<std::string> queries(std::begin(kStormQueries),
                                   std::end(kStormQueries));

  // Sequential: one query at a time, labels merged as they appear.
  DocumentStore seq_store;
  XCQ_ASSERT_OK(seq_store.LoadXml("doc", xml));
  std::vector<uint64_t> sequential;
  for (const std::string& query : queries) {
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                             seq_store.Find("doc")->Query(query));
    sequential.push_back(outcome.selected_tree_nodes);
  }

  // Batched: one job, label sets unioned before a single merge pass.
  DocumentStore batch_store;
  XCQ_ASSERT_OK(batch_store.LoadXml("doc", xml));
  QueryService service(&batch_store, ServiceOptions{2});
  QueryJob job;
  job.document = "doc";
  job.queries = queries;
  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> batched,
                           service.Execute(job));

  ASSERT_EQ(batched.size(), sequential.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].selected_tree_nodes, sequential[i])
        << "query " << queries[i];
  }
  // The batch needed exactly one scan of the document, the sequential
  // run one per new-label query.
  const std::vector<DocumentInfo> stats = batch_store.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].source_parses, 1u);
}

// --- Acceptance: zero re-parses over a preloaded .xcqi instance ------------

TEST(QueryServiceTest, HundredQueryBatchOverXcqiWithZeroReparses) {
  const std::string xml = StormXml();

  // Build the cached artifact: compress once with all tags, save, drop
  // the XML. (In production this is `xpath_tool --save` or an ingest
  // pipeline; the daemon then serves from the small file alone.)
  CompressOptions copts;  // kAllTags
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance instance, CompressXml(xml, copts));
  const std::string path = ::testing::TempDir() + "/storm_acceptance.xcqi";
  XCQ_ASSERT_OK(SaveInstance(instance, path));

  DocumentStore store;
  QueryService service(&store, ServiceOptions{4});
  XCQ_ASSERT_OK(store.LoadFile("doc", path));

  std::vector<std::string> batch;
  batch.reserve(100);
  for (int i = 0; i < 100; ++i) {
    batch.push_back(kStormQueries[i % std::size(kStormQueries)]);
  }
  QueryJob job;
  job.document = "doc";
  job.queries = batch;
  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> outcomes,
                           service.Execute(job));
  ASSERT_EQ(outcomes.size(), 100u);

  const std::map<std::string, uint64_t> reference = ReferenceCounts(xml);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].selected_tree_nodes, reference.at(batch[i]))
        << "query " << batch[i];
  }

  const std::vector<DocumentInfo> stats = store.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].source_parses, 0u)
      << "serving from a .xcqi instance must never touch source XML";
  EXPECT_FALSE(stats[0].has_source);
  EXPECT_EQ(stats[0].queries_served, 100u);
  EXPECT_EQ(stats[0].batches_served, 1u);
  std::remove(path.c_str());
}

// --- Protocol --------------------------------------------------------------

TEST(ProtocolTest, ParsesEveryVerb) {
  XCQ_ASSERT_OK_AND_ASSIGN(Request load,
                           ParseRequest("LOAD bib /tmp/bib.xml"));
  EXPECT_EQ(load.kind, Request::Kind::kLoad);
  EXPECT_EQ(load.name, "bib");
  EXPECT_EQ(load.path, "/tmp/bib.xml");

  XCQ_ASSERT_OK_AND_ASSIGN(Request query,
                           ParseRequest("QUERY bib //paper[author] "));
  EXPECT_EQ(query.kind, Request::Kind::kQuery);
  EXPECT_EQ(query.name, "bib");
  EXPECT_EQ(query.query, "//paper[author]");

  XCQ_ASSERT_OK_AND_ASSIGN(Request batch, ParseRequest("BATCH bib 100"));
  EXPECT_EQ(batch.kind, Request::Kind::kBatch);
  EXPECT_EQ(batch.batch_size, 100u);

  XCQ_ASSERT_OK_AND_ASSIGN(Request stats, ParseRequest(" STATS \r"));
  EXPECT_EQ(stats.kind, Request::Kind::kStats);

  XCQ_ASSERT_OK_AND_ASSIGN(Request evict, ParseRequest("EVICT bib"));
  EXPECT_EQ(evict.kind, Request::Kind::kEvict);
  EXPECT_EQ(evict.name, "bib");

  XCQ_ASSERT_OK_AND_ASSIGN(Request persist, ParseRequest("PERSIST bib"));
  EXPECT_EQ(persist.kind, Request::Kind::kPersist);
  EXPECT_EQ(persist.name, "bib");

  XCQ_ASSERT_OK_AND_ASSIGN(Request forget, ParseRequest("FORGET bib"));
  EXPECT_EQ(forget.kind, Request::Kind::kForget);
  EXPECT_EQ(forget.name, "bib");

  XCQ_ASSERT_OK_AND_ASSIGN(Request quit, ParseRequest("QUIT"));
  EXPECT_EQ(quit.kind, Request::Kind::kQuit);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  const char* bad[] = {
      "",                    // empty
      "NOPE x",              // unknown verb
      "LOAD onlyname",       // missing path
      "QUERY doc",           // missing query
      "BATCH doc",           // missing count
      "BATCH doc zero",      // non-numeric count
      "BATCH doc 12x",       // trailing garbage in the count token
      "BATCH doc 0",         // zero count
      "BATCH doc 3 extra",   // trailing junk
      "BATCH bib +2",        // a sign is not a digit
      "BATCH bib -18446744073709551615",  // must not wrap around to 1
      "QUERY bib TIMEOUT +5 //a",
      "QUERY bib TIMEOUT -18446744073709551615 //a",
      "STATS doc",           // STATS takes no arguments
      "EVICT",               // missing name
      "PERSIST",             // missing name
      "FORGET",              // missing name
  };
  for (const char* line : bad) {
    SCOPED_TRACE(line);
    EXPECT_EQ(ParseRequest(line).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, ErrorsStayOnOneLine) {
  const std::string formatted =
      FormatError(Status::ParseError("line one\nline two"));
  EXPECT_EQ(formatted.find('\n'), std::string::npos);
  EXPECT_EQ(formatted.rfind("ERR ", 0), 0u);
}

TEST(ProtocolTest, PipelinedConversation) {
  const std::string xml_path = ::testing::TempDir() + "/handler_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));

  DocumentStore store;
  QueryService service(&store, ServiceOptions{2});
  const std::vector<std::string> output = testing::Converse(
      &store, &service,
      {
          "LOAD bib " + xml_path,
          "",                   // blank keep-alive line: skipped, no reply
          "QUERY bib //paper/author",
          "BATCH bib 2",
          "//book/author",
          "//paper",
          "QUERY bib //[",      // parse error -> ERR, conversation continues
          "QUERY ghost //a",    // unknown document -> ERR
          "  \r",               // whitespace-only line: also skipped
          "STATS",
          "EVICT bib",
          "QUIT",
      });

  ASSERT_EQ(output.size(), 11u);
  EXPECT_EQ(output[0].rfind("OK loaded bib", 0), 0u) << output[0];
  EXPECT_EQ(output[1].rfind("OK dag=", 0), 0u) << output[1];
  EXPECT_NE(output[1].find("tree=2"), std::string::npos) << output[1];
  EXPECT_EQ(output[2], "OK 2");
  EXPECT_EQ(output[3].rfind("0 dag=", 0), 0u) << output[3];
  EXPECT_NE(output[3].find("tree=3"), std::string::npos) << output[3];
  EXPECT_EQ(output[4].rfind("1 dag=", 0), 0u) << output[4];
  EXPECT_NE(output[4].find("tree=2"), std::string::npos) << output[4];
  EXPECT_EQ(output[5].rfind("ERR ParseError", 0), 0u) << output[5];
  EXPECT_EQ(output[6].rfind("ERR NotFound", 0), 0u) << output[6];
  EXPECT_EQ(output[7], "OK 1");
  EXPECT_EQ(output[8].rfind("bib bytes=", 0), 0u) << output[8];
  EXPECT_EQ(output[9], "OK evicted bib");
  EXPECT_EQ(output[10], "OK bye");
  std::remove(xml_path.c_str());
}

TEST(ProtocolTest, TruncatedBatchBodyClosesConversation) {
  DocumentStore store;
  QueryService service(&store, ServiceOptions{1});
  const std::vector<std::string> output =
      testing::Converse(&store, &service, {"BATCH doc 3", "//only-one"});
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0].rfind("ERR InvalidArgument", 0), 0u) << output[0];
}

// --- TCP front end ---------------------------------------------------------

/// Blocking loopback client for the protocol, used by the socket tests.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
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

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

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

  /// Sends one request and returns the whole response (header plus any
  /// `OK <n>` detail lines).
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

TEST(TcpServerTest, EndToEndOverSockets) {
  const std::string xml_path = ::testing::TempDir() + "/tcp_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));

  ServerOptions options;
  options.port = 0;  // ephemeral
  options.worker_threads = 2;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.Start());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  auto loaded = client.Ask("LOAD bib " + xml_path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].rfind("OK loaded bib", 0), 0u) << loaded[0];

  auto queried = client.Ask("QUERY bib //paper/author");
  ASSERT_EQ(queried.size(), 1u);
  EXPECT_NE(queried[0].find("tree=2"), std::string::npos) << queried[0];

  // BATCH: body lines go out before the response comes back.
  ASSERT_TRUE(client.Send("BATCH bib 2"));
  ASSERT_TRUE(client.Send("//book/author"));
  std::string line;
  ASSERT_TRUE(client.Send("//paper"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK 2");
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("tree=3"), std::string::npos) << line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("tree=2"), std::string::npos) << line;

  auto stats = client.Ask("STATS");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[1].rfind("bib ", 0), 0u) << stats[1];

  auto evicted = client.Ask("EVICT bib");
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "OK evicted bib");

  auto bye = client.Ask("QUIT");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0], "OK bye");

  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 1u);
  std::remove(xml_path.c_str());
}

TEST(TcpServerTest, ConcurrentClientsMatchSingleThreaded) {
  const std::string xml = StormXml();
  const std::map<std::string, uint64_t> reference = ReferenceCounts(xml);

  ServerOptions options;
  options.port = 0;
  options.worker_threads = 4;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.store().LoadXml("doc", xml));
  XCQ_ASSERT_OK(server.Start());

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const std::string query =
            kStormQueries[(c + i) % std::size(kStormQueries)];
        const auto response = client.Ask("QUERY doc " + query);
        unsigned long long dag = 0;
        unsigned long long tree = 0;
        if (response.size() != 1u ||
            std::sscanf(response[0].c_str(), "OK dag=%llu tree=%llu",
                        &dag, &tree) != 2) {
          ++failures;
          continue;
        }
        if (tree != reference.at(query)) ++mismatches;
      }
      client.Ask("QUIT");
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.connections_accepted(),
            static_cast<uint64_t>(kClients));
}

TEST(TcpServerTest, StopUnblocksIdleClient) {
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.Start());
  TestClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  // The client never sends anything; Stop() must still return promptly
  // (it shuts the connection down rather than waiting on recv forever).
  server.Stop();
  std::string line;
  EXPECT_FALSE(idle.ReadLine(&line));
}

// --- Durability (ISSUE 9) --------------------------------------------------

TEST(TcpServerTest, RestartOnSameDataDirServesWithoutReload) {
  const std::string xml_path = ::testing::TempDir() + "/durable_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));
  std::string data_dir = ::testing::TempDir() + "/xcq_tcp_durable_XXXXXX";
  ASSERT_NE(::mkdtemp(data_dir.data()), nullptr);

  std::string want;
  {
    ServerOptions options;
    options.port = 0;
    options.worker_threads = 2;
    options.data_dir = data_dir;
    TcpServer server(options);
    XCQ_ASSERT_OK(server.store().durability_status());
    XCQ_ASSERT_OK(server.Start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    auto loaded = client.Ask("LOAD bib " + xml_path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].rfind("OK loaded bib", 0), 0u) << loaded[0];
    const auto queried = client.Ask("QUERY bib //paper/author");
    ASSERT_EQ(queried.size(), 1u);
    ASSERT_EQ(queried[0].rfind("OK dag=", 0), 0u) << queried[0];
    // The *answer* is dag=/tree=; splits and timings are per-run (the
    // replayed spill already carries the splits baked in).
    want = queried[0].substr(0, queried[0].find(" splits="));
    client.Ask("QUIT");
    server.Stop();  // graceful: flushes any stale spill
  }

  ServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  options.data_dir = data_dir;
  TcpServer server(options);
  EXPECT_EQ(server.store().recovery_stats().recovered, 1u);
  XCQ_ASSERT_OK(server.Start());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Before any query: the document is warm metadata, not resident.
  auto stats = client.Ask("STATS");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[1].rfind("bib ", 0), 0u) << stats[1];
  EXPECT_NE(stats[1].find(" warm=1"), std::string::npos) << stats[1];
  EXPECT_NE(stats[1].find(" resident=0"), std::string::npos) << stats[1];

  // QUERY with no LOAD: identical answer, zero source parses.
  const auto queried = client.Ask("QUERY bib //paper/author");
  ASSERT_EQ(queried.size(), 1u);
  EXPECT_EQ(queried[0].substr(0, queried[0].find(" splits=")), want)
      << queried[0];
  stats = client.Ask("STATS");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_NE(stats[1].find(" warm=1"), std::string::npos) << stats[1];
  EXPECT_NE(stats[1].find(" resident=1"), std::string::npos) << stats[1];
  EXPECT_NE(stats[1].find(" parses=0"), std::string::npos) << stats[1];

  // EVICT demotes the spill-backed document: residency drops, the warm
  // entry (and its spill) survive, and the next QUERY faults it back.
  auto evicted = client.Ask("EVICT bib");
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "OK evicted bib");
  stats = client.Ask("STATS");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_NE(stats[1].find(" warm=1"), std::string::npos) << stats[1];
  EXPECT_NE(stats[1].find(" resident=0"), std::string::npos) << stats[1];
  const auto again = client.Ask("QUERY bib //paper/author");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].substr(0, again[0].find(" splits=")), want)
      << again[0];

  // PERSIST on a resident document succeeds; FORGET removes everything.
  auto persisted = client.Ask("PERSIST bib");
  ASSERT_EQ(persisted.size(), 1u);
  EXPECT_EQ(persisted[0], "OK persisted bib");
  auto forgotten = client.Ask("FORGET bib");
  ASSERT_EQ(forgotten.size(), 1u);
  EXPECT_EQ(forgotten[0], "OK forgot bib");
  const auto gone = client.Ask("QUERY bib //paper/author");
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0].rfind("ERR NotFound", 0), 0u) << gone[0];
  stats = client.Ask("STATS");
  EXPECT_EQ(stats.size(), 1u);  // no rows left

  client.Ask("QUIT");
  server.Stop();
  std::remove(xml_path.c_str());
}

TEST(ProtocolTest, PersistAndForgetWithoutDataDir) {
  const std::string xml_path = ::testing::TempDir() + "/mem_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));
  DocumentStore store;
  QueryService service(&store, ServiceOptions{1});
  const std::vector<std::string> output =
      testing::Converse(&store, &service,
               {"LOAD bib " + xml_path, "PERSIST bib", "FORGET bib",
                "FORGET bib"});
  ASSERT_EQ(output.size(), 4u);
  // Memory-only store: PERSIST is a configuration error, FORGET still
  // drops the resident document (idempotent second call: NotFound).
  EXPECT_EQ(output[1].rfind("ERR InvalidArgument", 0), 0u) << output[1];
  EXPECT_EQ(output[2], "OK forgot bib");
  EXPECT_EQ(output[3].rfind("ERR NotFound", 0), 0u) << output[3];
  std::remove(xml_path.c_str());
}

// --- Observability (ISSUE 7) -----------------------------------------------

/// Splits a STATS row into its ordered `key=` names (the token before
/// the first is the document name and is skipped).
std::vector<std::string> StatsKeys(const std::string& row) {
  std::vector<std::string> keys;
  size_t start = 0;
  bool first = true;
  while (start < row.size()) {
    size_t end = row.find(' ', start);
    if (end == std::string::npos) end = row.size();
    const std::string token = row.substr(start, end - start);
    start = end + 1;
    if (first) {  // document name carries no '='
      first = false;
      continue;
    }
    const size_t eq = token.find('=');
    if (eq != std::string::npos) keys.push_back(token.substr(0, eq));
  }
  return keys;
}

TEST(ProtocolTest, StatsFieldSetIsFrozen) {
  const std::string xml_path = ::testing::TempDir() + "/stats_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));

  DocumentStore store;
  QueryService service(&store, ServiceOptions{1});
  const std::vector<std::string> output = testing::Converse(
      &store, &service,
      {"LOAD bib " + xml_path, "QUERY bib //paper/author", "STATS"});
  ASSERT_EQ(output.size(), 4u);  // LOAD, QUERY, "OK 1", the row
  ASSERT_EQ(output[2], "OK 1");

  // The exact ordered field set of a STATS row. This list is FROZEN
  // (docs/SERVER.md): scripts parse by position or key, so existing
  // fields never move or vanish; new fields are appended at the end —
  // extend this vector when (and only when) you append one.
  const std::vector<std::string> expected = {
      "bytes",           "vertices",       "edges",
      "tree_nodes",      "tags",           "patterns",
      "queries",         "batches",        "shared",
      "parses",          "source",         "summary",
      "visited",         "full",           "pruned",
      "skipped",         "scratch_resident", "scratch_hits",
      "scratch_allocs",  "traversal_builds", "summary_builds",
      "label_s",         "minimize_s",     "qps",
      "share_rate",      "p50_ms",         "p95_ms",
      "p99_ms",          "queued",         "inflight",
      "warm",            "resident",       "spill_bytes",
      "shed",            "cancelled",
  };
  EXPECT_EQ(StatsKeys(output[3]), expected) << output[3];
  std::remove(xml_path.c_str());
}

TEST(ProtocolTest, StatsLineRendersEveryFieldInPlace) {
  // Every field holds a distinct value, so a value rendered under the
  // wrong key, at the wrong position or in the wrong number format
  // changes the line. `summary` and `skipped` are frozen keys with no
  // field behind them: they always read 0.
  DocumentInfo info;
  info.name = "doc";
  info.memory_bytes = 8589934592;  // > 2^32: integers render 64-bit
  info.vertex_count = 2;
  info.rle_edges = 3;
  info.tree_nodes = 4;
  info.tracked_tags = 5;
  info.tracked_patterns = 6;
  info.queries_served = 7;
  info.batches_served = 8;
  info.batches_shared = 9;
  info.source_parses = 10;
  info.has_source = true;
  info.sweeps.visited = 12;
  info.sweeps.full = 13;
  info.sweeps.pruned = 14;
  info.scratch_resident = 16;
  info.scratch_capacity = 99;  // METRICS only
  info.scratch_hits = 17;
  info.scratch_allocs = 18;
  info.traversal_builds = 19;
  info.summary_builds = 20;
  info.label_seconds = 21.5;
  info.minimize_seconds = 0.000022;
  info.qps = 23.125;
  info.share_rate = 0.24;
  info.p50_ms = 25.5;
  info.p95_ms = 26.75;
  info.p99_ms = 27.001;
  info.queued = 28;
  info.inflight = 29;
  info.shed = 31;
  info.cancelled = 32;
  info.warm = true;
  info.resident = false;
  info.spill_bytes = 30;
  EXPECT_EQ(FormatDocumentInfo(info),
            "doc bytes=8589934592 vertices=2 edges=3 tree_nodes=4 tags=5 "
            "patterns=6 queries=7 batches=8 shared=9 parses=10 source=xml "
            "summary=0 visited=12 full=13 pruned=14 skipped=0 "
            "scratch_resident=16 scratch_hits=17 scratch_allocs=18 "
            "traversal_builds=19 summary_builds=20 label_s=21.500000 "
            "minimize_s=0.000022 qps=23.125 share_rate=0.240 "
            "p50_ms=25.500 p95_ms=26.750 p99_ms=27.001 queued=28 "
            "inflight=29 warm=1 resident=0 spill_bytes=30 shed=31 "
            "cancelled=32");

  info.has_source = false;
  info.warm = false;
  info.resident = true;
  const std::string line = FormatDocumentInfo(info);
  EXPECT_NE(line.find(" source=xcqi "), std::string::npos) << line;
  EXPECT_NE(line.find(" warm=0 resident=1 "), std::string::npos) << line;
}

/// Parses exposition sample lines (from a METRICS response body) into
/// series -> value; comment lines are skipped.
std::map<std::string, double> ParseSamples(
    const std::vector<std::string>& response) {
  std::map<std::string, double> samples;
  for (size_t i = 1; i < response.size(); ++i) {  // [0] is "OK <n>"
    const std::string& line = response[i];
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

TEST(ProtocolTest, DocumentGaugesEqualStatsFields) {
  const std::string xml_path = ::testing::TempDir() + "/gauges_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));

  DocumentStore store;
  QueryService service(&store, ServiceOptions{1});
  const std::vector<std::string> output = testing::Converse(
      &store, &service,
      {"LOAD bib " + xml_path,
       "QUERY bib //paper/preceding-sibling::book/title", "METRICS",
       "STATS"});
  ASSERT_GE(output.size(), 3u);
  ASSERT_EQ(output[2].rfind("OK ", 0), 0u) << output[2];
  const size_t metric_lines =
      std::strtoul(output[2].c_str() + 3, nullptr, 10);
  ASSERT_EQ(output.size(), 3 + metric_lines + 2);
  const std::map<std::string, double> samples =
      ParseSamples(std::vector<std::string>(
          output.begin() + 2, output.begin() + 3 + metric_lines));
  ASSERT_EQ(output[3 + metric_lines], "OK 1");
  const std::string& row = output.back();

  // STATS key -> per-document gauge of the same DocumentInfo field. The
  // query leaves neighbouring fields of the table with distinct values
  // (it splits and builds the traversal cache three times), so a gauge
  // read from the wrong field differs from its STATS key.
  const std::pair<const char*, const char*> pairs[] = {
      {"bytes", "xcq_document_memory_bytes"},
      {"vertices", "xcq_document_vertices"},
      {"tree_nodes", "xcq_document_tree_nodes"},
      {"summary", "xcq_document_summary_nodes"},
      {"summary_builds", "xcq_document_summary_builds"},
      {"traversal_builds", "xcq_document_traversal_builds"},
      {"scratch_resident", "xcq_document_scratch_resident"},
      {"scratch_hits", "xcq_document_scratch_hits"},
      {"scratch_allocs", "xcq_document_scratch_allocations"},
  };
  for (const auto& [key, gauge] : pairs) {
    const std::string needle = " " + std::string(key) + "=";
    const size_t at = row.find(needle);
    ASSERT_NE(at, std::string::npos) << key << " in " << row;
    const double stats_value =
        std::strtod(row.c_str() + at + needle.size(), nullptr);
    const std::string series = std::string(gauge) + "{document=\"bib\"}";
    ASSERT_TRUE(samples.count(series)) << series;
    EXPECT_EQ(samples.at(series), stats_value) << key << " vs " << gauge;
  }
  std::remove(xml_path.c_str());
}

TEST(TcpServerTest, MetricsMoveWithQueriesAndVanishOnEvict) {
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  TcpServer server(options);
  XCQ_ASSERT_OK(server.store().LoadXml("bib", testing::BibExampleXml()));
  XCQ_ASSERT_OK(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Two queries and one two-member batch move the counters.
  EXPECT_EQ(client.Ask("QUERY bib //paper/author").size(), 1u);
  EXPECT_EQ(client.Ask("QUERY bib //book").size(), 1u);
  ASSERT_TRUE(client.Send("BATCH bib 2"));
  ASSERT_TRUE(client.Send("//paper"));
  ASSERT_TRUE(client.Send("//book/author"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK 2");
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.ReadLine(&line));

  const auto scrape = client.Ask("METRICS");
  ASSERT_GT(scrape.size(), 1u);
  const std::map<std::string, double> samples = ParseSamples(scrape);

  const std::string doc = "{document=\"bib\"}";
  ASSERT_TRUE(samples.count("xcq_document_queries_total" + doc));
  EXPECT_GE(samples.at("xcq_document_queries_total" + doc), 2.0);
  ASSERT_TRUE(samples.count("xcq_document_batches_total" + doc));
  EXPECT_DOUBLE_EQ(samples.at("xcq_document_batches_total" + doc), 1.0);
  ASSERT_TRUE(samples.count("xcq_query_seconds_count" + doc));
  EXPECT_GE(samples.at("xcq_query_seconds_count" + doc), 2.0);
  // The ISSUE's required scrape surface.
  EXPECT_TRUE(samples.count("xcq_document_qps" + doc));
  EXPECT_TRUE(samples.count("xcq_document_batch_share_rate" + doc));
  EXPECT_TRUE(samples.count("xcq_document_scratch_resident" + doc));
  EXPECT_TRUE(samples.count("xcq_query_seconds_p50" + doc));
  EXPECT_TRUE(samples.count("xcq_query_seconds_p95" + doc));
  EXPECT_TRUE(samples.count("xcq_query_seconds_p99" + doc));
  EXPECT_TRUE(samples.count(
      "xcq_sweep_prune_ratio{axis=\"downward\",document=\"bib\"}"));
  EXPECT_TRUE(samples.count("xcq_store_documents"));
  EXPECT_TRUE(samples.count("xcq_server_uptime_seconds"));
  // Phase counters carry the phase label and accumulated sweep time.
  EXPECT_TRUE(samples.count(
      "xcq_phase_seconds_total{document=\"bib\",phase=\"sweep\"}"));

  // EVICT unlists every document="bib" series; store counters remain.
  EXPECT_EQ(client.Ask("EVICT bib").size(), 1u);
  const auto after = client.Ask("METRICS");
  ASSERT_GT(after.size(), 1u);
  const std::map<std::string, double> post = ParseSamples(after);
  for (const auto& [series, value] : post) {
    EXPECT_EQ(series.find("document=\"bib\""), std::string::npos)
        << series;
  }
  ASSERT_TRUE(post.count("xcq_store_evictions_total"));
  EXPECT_DOUBLE_EQ(post.at("xcq_store_evictions_total"), 1.0);

  client.Ask("QUIT");
  server.Stop();
}

TEST(ProtocolTest, TraceSinkCapturesOneJsonLinePerQuery) {
  const std::string xml_path = ::testing::TempDir() + "/trace_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));

  StoreOptions store_options;
  store_options.trace.mode = TraceOptions::Mode::kAll;
  std::mutex mu;
  std::vector<std::string> traces;
  store_options.trace.sink = [&](std::string_view trace_line) {
    std::lock_guard<std::mutex> lock(mu);
    traces.emplace_back(trace_line);
  };

  DocumentStore store(store_options);
  QueryService service(&store, ServiceOptions{1});
  testing::Converse(&store, &service,
           {
               "LOAD bib " + xml_path,
               "QUERY bib //paper/author",
               "BATCH bib 2",
               "//book",
               "//paper",
           });

  // One line for the QUERY, one per batch member.
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_NE(traces[0].find("\"document\":\"bib\""), std::string::npos)
      << traces[0];
  EXPECT_NE(traces[0].find("\"query\":\"//paper/author\""),
            std::string::npos)
      << traces[0];
  EXPECT_NE(traces[0].find("\"phase\":\"sweep\""), std::string::npos)
      << traces[0];
  EXPECT_NE(traces[0].find("\"phase\":\"serialize\""), std::string::npos)
      << traces[0];
  for (const std::string& t : traces) {
    EXPECT_EQ(t.find('\n'), std::string::npos);
    EXPECT_NE(t.find("\"spans\":["), std::string::npos) << t;
  }
  std::remove(xml_path.c_str());
}

TEST(ProtocolTest, SlowTraceModeSkipsFastQueries) {
  const std::string xml_path = ::testing::TempDir() + "/slow_bib.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));

  StoreOptions store_options;
  store_options.trace.mode = TraceOptions::Mode::kSlow;
  store_options.trace.slow_threshold_s = 3600.0;  // nothing is this slow
  std::atomic<int> emitted{0};
  store_options.trace.sink = [&](std::string_view) { ++emitted; };

  DocumentStore store(store_options);
  QueryService service(&store, ServiceOptions{1});
  testing::Converse(&store, &service,
           {"LOAD bib " + xml_path, "QUERY bib //paper/author"});
  EXPECT_EQ(emitted.load(), 0);
  std::remove(xml_path.c_str());
}

}  // namespace
}  // namespace xcq::server
