#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"

namespace xcq {
namespace {

/// End-to-end flows that tie several subsystems together, mirroring how a
/// downstream application would use the library.

TEST(IntegrationTest, QuickstartFlow) {
  // The README quickstart, as a test: parse + compress with exactly the
  // relations a query needs, evaluate, count, decode.
  const std::string xml = testing::BibExampleXml();
  XCQ_ASSERT_OK_AND_ASSIGN(const xpath::Query query,
                           xpath::ParseQuery("//book[author[\"Vianu\"]]"));
  const xpath::QueryRequirements reqs = CollectRequirements(query);
  CompressOptions copts;
  copts.mode = LabelMode::kSchema;
  copts.tags = reqs.tags;
  copts.patterns = reqs.patterns;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, copts));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::Compile(query));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&inst, plan, engine::EvalOptions{}, nullptr));
  EXPECT_EQ(SelectedTreeNodeCount(inst, result), 1u);
  EXPECT_EQ(SelectedDagNodeCount(inst, result), 1u);
}

TEST(IntegrationTest, EvaluateThenSerializeThenReevaluate) {
  // Query results are part of the instance; persist, reload, and reuse
  // the stored selection as the context of a follow-up query.
  const std::string xml = testing::BibExampleXml();
  CompressOptions copts;
  copts.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, copts));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//paper"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&inst, plan, engine::EvalOptions{}, nullptr));
  (void)result;

  const std::string bytes = SerializeInstanceChecksummed(inst);
  XCQ_ASSERT_OK_AND_ASSIGN(Instance reloaded, DeserializeInstance(bytes));

  // Follow-up: authors of the previously selected papers.
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan follow_up,
                           algebra::CompileString("author"));
  engine::EvalOptions options;
  options.context_relation = std::string(engine::kResultRelation);
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId authors,
      engine::Evaluate(&reloaded, follow_up, options, nullptr));
  EXPECT_EQ(SelectedTreeNodeCount(reloaded, authors), 2u);
}

TEST(IntegrationTest, CommonExtensionDrivenEvaluation) {
  // Sec. 2.3 workflow: a tag-only instance exists (e.g. cached); a new
  // query needs a string constraint. Build the constraint instance in a
  // second pass and merge, then evaluate on the merged instance.
  const std::string xml = testing::BibExampleXml();

  CompressOptions tag_pass;
  tag_pass.mode = LabelMode::kSchema;
  tag_pass.tags = {"paper", "author", "title"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance tags, CompressXml(xml, tag_pass));

  CompressOptions string_pass;
  string_pass.mode = LabelMode::kSchema;
  string_pass.patterns = {"Vardi"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance strings,
                           CompressXml(xml, string_pass));

  XCQ_ASSERT_OK_AND_ASSIGN(Instance merged,
                           CommonExtension(tags, strings));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//paper[\"Vardi\"]/title"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&merged, plan, engine::EvalOptions{}, nullptr));
  EXPECT_EQ(SelectedTreeNodeCount(merged, result), 1u);
}

TEST(IntegrationTest, AllCorporaEndToEnd) {
  // The full pipeline on every corpus at small scale: generate, compress
  // in query-schema mode, run Q2 (a splitting query), compare against
  // the baseline via the differential harness.
  for (const corpus::QuerySet& set : corpus::AppendixAQueries()) {
    XCQ_ASSERT_OK_AND_ASSIGN(const corpus::CorpusGenerator* corpus,
                             corpus::FindCorpus(set.corpus));
    corpus::GenerateOptions options;
    options.target_nodes = 8000;
    options.seed = 21;
    const std::string xml = corpus->Generate(options);
    const testing::DifferentialResult r =
        testing::RunDifferential(xml, std::string(set.queries[1]));
    EXPECT_GE(r.selected_tree_nodes, 1u) << set.corpus;
  }
}

TEST(IntegrationTest, RecompressAfterQueryRestoresMinimality) {
  // Sec. 3.3: "It is easy to re-compress" an instance after evaluation.
  const std::string xml = testing::RandomXml(17, 400, 3);
  CompressOptions copts;
  copts.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, copts));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//t0/t1/t2"));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&inst, plan, engine::EvalOptions{}, nullptr));
  (void)result;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance recompressed, Minimize(inst));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(recompressed));
  EXPECT_TRUE(minimal);
  EXPECT_LE(recompressed.vertex_count(), inst.ReachableCount());
  // Selections survive recompression.
  const RelationId moved =
      recompressed.FindRelation(engine::kResultRelation);
  ASSERT_NE(moved, kNoRelation);
  EXPECT_EQ(SelectedTreeNodeCount(recompressed, moved),
            SelectedTreeNodeCount(inst, result));
}

}  // namespace
}  // namespace xcq
