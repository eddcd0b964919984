#ifndef XCQ_TESTS_TEST_UTIL_H_
#define XCQ_TESTS_TEST_UTIL_H_

/// \file test_util.h
/// Shared helpers for the xcq test suite, most importantly the
/// differential harness: every query evaluated by the DAG engine on a
/// compressed instance must — after decompression — select exactly the
/// node set the uncompressed tree baseline selects.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xcq/api.h"

namespace xcq::testing {

/// Unwraps a Result<T>, failing the test on error.
#define XCQ_ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  XCQ_ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      XCQ_CONCAT_NAME(_assert_result_, __LINE__), lhs, expr)

#define XCQ_ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();   \
  lhs = std::move(tmp).Value();

#define XCQ_ASSERT_OK(expr)                              \
  do {                                                   \
    const ::xcq::Status _s = (expr);                     \
    ASSERT_TRUE(_s.ok()) << _s.ToString();               \
  } while (false)

#define XCQ_EXPECT_OK(expr)                              \
  do {                                                   \
    const ::xcq::Status _s = (expr);                     \
    EXPECT_TRUE(_s.ok()) << _s.ToString();               \
  } while (false)

/// Result of running one query through both engines on one document.
struct DifferentialResult {
  uint64_t selected_tree_nodes = 0;  ///< |result| in the tree view.
  uint64_t selected_dag_nodes = 0;   ///< Selected vertices in the DAG.
  engine::EvalStats dag_stats;
};

/// Runs `query_text` on `xml` through (a) kSchema compression + the DAG
/// engine and (b) the tree baseline, and asserts that the decompressed
/// DAG selection equals the baseline node set bit-for-bit. Returns
/// counters for further assertions.
DifferentialResult RunDifferential(const std::string& xml,
                                   const std::string& query_text);

/// Asserts that `a` and `b` have the same vertex count and that every
/// vertex has the same child list in both.
void ExpectSameChildLists(const Instance& a, const Instance& b);

/// Builds the paper's Example 1.1 bibliography document.
std::string BibExampleXml();

/// A complete binary tree of depth `depth` (root at depth 1) whose
/// internal levels alternate labels a, b, a, b, ... — the Fig. 5 input.
std::string AlternatingBinaryTreeXml(int depth);

/// Deterministic random XML for property tests: `max_nodes` elements,
/// tags drawn from `tag_count` distinct names, sprinkled text.
std::string RandomXml(uint64_t seed, size_t max_nodes, int tag_count);

/// Random syntactically valid Core XPath query over tags t0..t{n-1},
/// using all axes, nested predicates, and string constraints — fuel for
/// the differential fuzzer.
std::string RandomQueryText(Rng& rng, int tag_count);

/// Runs one client conversation through a `server::PipelinedHandler` —
/// the daemon's request path minus sockets — and returns the reply lines
/// in request order (no terminators). Lines are fed in order; after
/// each one the helper waits until every dispatched reply has arrived,
/// so a LOAD completes before the next line's QUERY is dispatched. A
/// `kStalled` feed waits for a completion and resumes the parked
/// request; a `kClose` (QUIT) ends the feed. End of input calls
/// `OnInputClosed`.
std::vector<std::string> Converse(server::DocumentStore* store,
                                  server::QueryService* service,
                                  const std::vector<std::string>& input,
                                  server::HandlerOptions options = {});

}  // namespace xcq::testing

#endif  // XCQ_TESTS_TEST_UTIL_H_
