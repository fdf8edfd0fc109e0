#ifndef XEE_XEE_H_
#define XEE_XEE_H_

/// \file
/// Umbrella header for xee — the XPath Estimation Engine, a C++
/// implementation of "An Estimation System for XPath Expressions"
/// (Li, Lee, Hsu, Cong — ICDE 2006).
///
/// Typical use:
///
///   xee::xml::Document doc = xee::xml::ParseXml(xml_text).value();
///   xee::estimator::Synopsis synopsis =
///       xee::estimator::Synopsis::Build(doc, {});
///   xee::estimator::Estimator estimator(synopsis);
///   xee::xpath::Query q =
///       xee::xpath::ParseXPath("//PLAY[/TITLE/following-sibling::ACT]")
///           .value();
///   double selectivity = estimator.Estimate(q).value();
///
/// The synopsis is a compact summary (path encoding table, path-id
/// binary tree, p-/o-histograms); the source document is not needed at
/// estimation time.

#include "common/backoff.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/sharded_lru.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "delta/live_synopsis.h"
#include "encoding/containment.h"
#include "encoding/encoding_table.h"
#include "encoding/labeling.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "eval/exact_evaluator.h"
#include "histogram/o_histogram.h"
#include "histogram/p_histogram.h"
#include "markov/markov_estimator.h"
#include "pidtree/collapsed_pid_tree.h"
#include "pidtree/pid_binary_tree.h"
#include "poshist/position_histogram.h"
#include "stats/path_order.h"
#include "stats/pathid_frequency.h"
#include "join/structural_join.h"
#include "service/maintenance.h"
#include "service/service.h"
#include "service/service_stats.h"
#include "service/synopsis_registry.h"
#include "workload/workload.h"
#include "xpath/canonical.h"
#include "xml/doc_stats.h"
#include "xml/parser.h"
#include "xml/tree.h"
#include "xml/writer.h"
#include "xpath/parser.h"
#include "xpath/query.h"
#include "xsketch/xsketch.h"

#endif  // XEE_XEE_H_
