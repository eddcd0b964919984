// Smoke test: the umbrella header must compile standalone in its own
// translation unit (no other xcq includes before it), so it cannot
// silently rot when subsystem headers change.
#include "xcq/api.h"

#include <string>

#include "gtest/gtest.h"

namespace {

TEST(ApiSmokeTest, UmbrellaHeaderCompilesStandalone) {
  // Nothing to do at runtime: the test is that this file compiled with
  // xcq/api.h as the first include.
  SUCCEED();
}

// Pins the usage example in the api.h doc comment: the same calls, in
// the same shape, must keep compiling and producing a sensible answer.
// If this test needs editing, update the \code block in api.h to match.
TEST(ApiSmokeTest, DocCommentExampleRuns) {
  const std::string xml_text =
      "<bib>"
      "<book><author>Abiteboul</author><author>Vianu</author></book>"
      "<book><author>Codd</author></book>"
      "</bib>";

  // 1. Parse + compress in one pass, tracking what the query needs.
  auto query = xcq::xpath::ParseQuery("//book[author[\"Vianu\"]]");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto reqs = xcq::xpath::CollectRequirements(*query);
  xcq::CompressOptions copts;
  copts.mode = xcq::LabelMode::kSchema;
  copts.tags = reqs.tags;
  copts.patterns = reqs.patterns;
  auto instance = xcq::CompressXml(xml_text, copts);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  // 2. Compile and evaluate on the compressed instance.
  auto plan = xcq::algebra::Compile(*query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = xcq::engine::Evaluate(&*instance, *plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // 3. Count / decode the selection: exactly the one book with Vianu.
  uint64_t hits = xcq::SelectedTreeNodeCount(*instance, *result);
  EXPECT_EQ(hits, 1u);
}

// Pins the second api.h example: the session layer with per-query
// reclaim.
TEST(ApiSmokeTest, SessionDocCommentExampleRuns) {
  const std::string xml_text =
      "<bib>"
      "<book><author>Abiteboul</author><author>Vianu</author></book>"
      "<book><author>Codd</author></book>"
      "</bib>";

  xcq::SessionOptions sopts;
  sopts.minimize_after_query = true;
  auto session = xcq::QuerySession::Open(xml_text, sopts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto outcome = session->Run("//book[author[\"Vianu\"]]");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  uint64_t tree_hits = outcome->selected_tree_nodes;
  EXPECT_EQ(tree_hits, 1u);
}

}  // namespace
