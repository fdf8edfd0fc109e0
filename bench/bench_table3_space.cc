// Reproduces paper Table 3: space requirement of the encoding table, the
// raw path-id table, and the path-id binary tree, plus the path/pid
// counts driving them. Two columns past the paper's: the join index
// (cover rows + tag-pair path masks of the word-parallel path-id join,
// DESIGN.md §13), which is derived at load time and not part of the
// paper's synopsis, and the serialized synopsis it is measured against.
//
// Paper values (full scale):
//   #DistPaths / PidSize / #DistPid:  SSPlays 40/5B/115, DBLP 87/11B/327,
//   XMark 344/43B/6811
//   EncTab/PidTab/BinTree KB: SSPlays 0.24/0.92/0.93, DBLP 0.39/3.60/2.97,
//   XMark 2.90/299.7/67.3 (the tree saves ~78% on XMark)

#include <cstdio>

#include "bench_util/runner.h"
#include "common/strings.h"
#include "encoding/labeling.h"
#include "estimator/synopsis.h"
#include "pidtree/collapsed_pid_tree.h"
#include "pidtree/pid_binary_tree.h"

int main(int argc, char** argv) {
  using namespace xee;
  auto config = bench_util::BenchConfig::FromArgs(argc, argv);
  bench_util::PrintHeader(
      "Table 3: space requirement of encoding table and path id binary "
      "tree");
  std::printf("%-10s %11s %8s %9s | %9s %9s %11s %7s %11s %7s | %9s %9s\n",
              "Dataset", "#DistPaths", "PidSize", "#DistPid", "EncTab",
              "PidTab", "PidBinTree", "Saving", "Collapsed", "Saving",
              "JoinIdx", "Blob");
  for (const auto& ds : bench_util::MakeDatasets(config)) {
    encoding::Labeling lab = encoding::LabelDocument(ds.doc);
    pidtree::PathIdBinaryTree tree(lab);
    pidtree::CollapsedPidTree collapsed(lab);
    const estimator::Synopsis syn = estimator::Synopsis::Build(ds.doc, {});
    auto saving = [&](size_t bytes) {
      return 100.0 * (1.0 - static_cast<double>(bytes) /
                                static_cast<double>(lab.PidTableSizeBytes()));
    };
    std::printf(
        "%-10s %11zu %7zuB %9zu | %9s %9s %11s %6.1f%% %11s %6.1f%% | %9s "
        "%9s\n",
        ds.name.c_str(), lab.table.PathCount(), lab.PidSizeBytes(),
        lab.distinct_pids.size(), HumanBytes(lab.table.SizeBytes()).c_str(),
        HumanBytes(lab.PidTableSizeBytes()).c_str(),
        HumanBytes(tree.SizeBytes()).c_str(), saving(tree.SizeBytes()),
        HumanBytes(collapsed.SizeBytes()).c_str(),
        saving(collapsed.SizeBytes()),
        HumanBytes(syn.JoinIndexBytes()).c_str(),
        HumanBytes(syn.Serialize().size()).c_str());
  }
  std::printf(
      "\npaper (full scale): SSPlays 40/5B/115 0.24/0.92/0.93KB, DBLP "
      "87/11B/327 0.39/3.60/2.97KB, XMark 344/43B/6811 2.90/299.7/67.3KB "
      "(~78%% saving). The per-bit tree of Section 6 only pays off for\n"
      "long sparse path ids; the path-compressed Collapsed variant (see "
      "DESIGN.md) reaches the savings the paper reports.\n"
      "JoinIdx (not in the paper) is derived at load time and kept out of "
      "every paper size; it should stay at or below Blob, the serialized "
      "synopsis.\n");
  return 0;
}
