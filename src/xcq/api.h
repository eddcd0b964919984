#ifndef XCQ_API_H_
#define XCQ_API_H_

/// \file api.h
/// Umbrella header: the public surface of the xcq library.
///
/// Typical usage (see examples/quickstart.cpp for a runnable version):
///
/// \code
///   // 1. Parse + compress in one pass, tracking what the query needs.
///   auto query = xcq::xpath::ParseQuery("//book[author[\"Vianu\"]]");
///   auto reqs = xcq::xpath::CollectRequirements(*query);
///   xcq::CompressOptions copts;
///   copts.mode = xcq::LabelMode::kSchema;
///   copts.tags = reqs.tags;
///   copts.patterns = reqs.patterns;
///   auto instance = xcq::CompressXml(xml_text, copts);
///
///   // 2. Compile and evaluate on the compressed instance.
///   auto plan = xcq::algebra::Compile(*query);
///   auto result = xcq::engine::Evaluate(&*instance, *plan);
///
///   // 3. Count / decode the selection.
///   uint64_t hits =
///       xcq::SelectedTreeNodeCount(*instance, *result);
/// \endcode
///
/// For serving many queries over one document, prefer the session layer,
/// which accumulates one compressed instance across queries (merging in
/// missing labels via common extensions) and can reclaim split growth
/// after every query with the in-place minimization pass:
///
/// \code
///   xcq::SessionOptions sopts;
///   sopts.minimize_after_query = true;
///   auto session = xcq::QuerySession::Open(xml_text, sopts);
///   auto outcome = session->Run("//book[author[\"Vianu\"]]");
///   uint64_t tree_hits = outcome->selected_tree_nodes;
/// \endcode
///
/// Above the session sits `xcq::server::DocumentStore` (a named LRU
/// cache of sessions) and the `xcq_serverd` daemon — see docs/SERVER.md;
/// docs/INTERNALS.md walks the representation and maintenance machinery.
///
/// These examples are kept honest by tests/api_smoke_test.cc, which
/// compiles and runs the same calls; keep the two in sync.

#include "xcq/algebra/compiler.h"
#include "xcq/algebra/op.h"
#include "xcq/baseline/tree_evaluator.h"
#include "xcq/compress/common_extension.h"
#include "xcq/compress/compressor.h"
#include "xcq/compress/dag_builder.h"
#include "xcq/compress/decompress.h"
#include "xcq/compress/minimize.h"
#include "xcq/compress/verify.h"
#include "xcq/corpus/generator.h"
#include "xcq/corpus/queries.h"
#include "xcq/corpus/registry.h"
#include "xcq/engine/enumerate.h"
#include "xcq/engine/evaluator.h"
#include "xcq/instance/instance.h"
#include "xcq/instance/instance_io.h"
#include "xcq/instance/schema.h"
#include "xcq/instance/stats.h"
#include "xcq/server/document_store.h"
#include "xcq/server/protocol.h"
#include "xcq/server/query_service.h"
#include "xcq/server/tcp_server.h"
#include "xcq/session/query_session.h"
#include "xcq/tree/tree_builder.h"
#include "xcq/tree/tree_skeleton.h"
#include "xcq/util/result.h"
#include "xcq/util/status.h"
#include "xcq/util/timer.h"
#include "xcq/xml/sax_parser.h"
#include "xcq/xml/writer.h"
#include "xcq/xpath/parser.h"

#endif  // XCQ_API_H_
