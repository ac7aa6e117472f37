// Exact-search bench: the memoized canonical DFS (TopoTreeSearch::
// FindOptimalDfs) on Table-1-class inputs — full balanced m-ary index trees
// with uniform random data weights at k = 2/3 channels, the regime where the
// exact search is affordable but not trivial — plus skewed random families,
// the largest of which (deep18, a near-chain) is where the dominance memo
// earns its keep.
//
// Per instance it reports the deterministic expansion counts of the
// unseeded search and of the search seeded with the SortingHeuristic
// incumbent (exactly what FindOptimalAllocation installs), the memo's
// dominance skips, and the min/median wall time of the unseeded search over
// --repeats calls on one reused search object (one thread; the first call
// also grows the memo table). The seeded allocation must be byte-identical
// to the unseeded one; a mismatch is a hard failure (exit 1).
//
// Usage: bench_exact_search [--json[=path]] [--repeats N]
//   --json     additionally writes the machine-readable report (schema in
//              docs/FORMATS.md) to BENCH_exact_search.json or `path`.
//   --repeats  timed calls per instance (default 3).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc/heuristics.h"
#include "alloc/topo_search.h"
#include "obs/export.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace {

using bcast::IndexTree;
using bcast::TopoTreeSearch;

struct InstanceReport {
  std::string name;
  int fanout = 0;
  int depth = 0;
  int num_nodes = 0;
  int channels = 0;
  double adw = 0.0;
  // Deterministic counts of the unseeded and the heuristic-seeded search;
  // tools/check_search_regression.py gates on the two expansion counts.
  uint64_t dfs_expansions_unseeded = 0;
  uint64_t dfs_expansions_seeded = 0;
  uint64_t dominance_skips = 0;  // of the unseeded search
  double seeding_reduction = 0.0;  // unseeded / seeded
  double min_seconds = 0.0;
  double median_seconds = 0.0;
};

bool RunInstance(const std::string& name, const IndexTree& tree, int fanout,
                 int depth, int channels, int repeats,
                 std::vector<InstanceReport>* reports) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(tree, options);
  if (!search.ok()) {
    std::fprintf(stderr, "search: %s\n", search.status().ToString().c_str());
    return false;
  }
  std::vector<double> seconds;
  bcast::Result<bcast::AllocationResult> reference =
      bcast::InternalError("not run");
  for (int rep = 0; rep < repeats; ++rep) {
    auto begin = std::chrono::steady_clock::now();
    reference = search->FindOptimalDfs();
    auto end = std::chrono::steady_clock::now();
    if (!reference.ok()) {
      std::fprintf(stderr, "dfs: %s\n", reference.status().ToString().c_str());
      return false;
    }
    seconds.push_back(std::chrono::duration<double>(end - begin).count());
  }

  // Seeded search: the exact incumbent FindOptimalAllocation installs
  // (SortingHeuristic cost, inflated by one relative ulp-guard).
  auto heuristic = bcast::SortingHeuristic(tree, channels);
  if (!heuristic.ok()) {
    std::fprintf(stderr, "heuristic: %s\n",
                 heuristic.status().ToString().c_str());
    return false;
  }
  double seed_v = heuristic->average_data_wait * tree.total_data_weight();
  seed_v *= 1.0 + 1e-9;
  auto seeded = search->FindOptimalDfs(seed_v);
  if (!seeded.ok()) {
    std::fprintf(stderr, "seeded dfs: %s\n",
                 seeded.status().ToString().c_str());
    return false;
  }
  if (seeded->slots != reference->slots ||
      seeded->average_data_wait != reference->average_data_wait) {
    std::fprintf(stderr,
                 "SEEDING VIOLATION: %s seeded DFS diverged from the unseeded "
                 "allocation\n",
                 name.c_str());
    return false;
  }

  InstanceReport report;
  report.name = name;
  report.fanout = fanout;
  report.depth = depth;
  report.num_nodes = tree.num_nodes();
  report.channels = channels;
  report.adw = reference->average_data_wait;
  report.dfs_expansions_unseeded = reference->stats.nodes_expanded;
  report.dfs_expansions_seeded = seeded->stats.nodes_expanded;
  report.dominance_skips = reference->stats.dominance_skips;
  report.seeding_reduction =
      seeded->stats.nodes_expanded > 0
          ? static_cast<double>(reference->stats.nodes_expanded) /
                static_cast<double>(seeded->stats.nodes_expanded)
          : 0.0;
  std::sort(seconds.begin(), seconds.end());
  report.min_seconds = seconds.front();
  report.median_seconds = seconds[seconds.size() / 2];
  reports->push_back(std::move(report));
  return true;
}

void PrintTable(const std::vector<InstanceReport>& reports) {
  std::printf("%-10s %6s %3s | %12s %12s %10s %9s | %10s %10s\n", "instance",
              "nodes", "k", "unseeded", "seeded", "memo-skips", "reduction",
              "min(s)", "median(s)");
  for (const InstanceReport& report : reports) {
    std::printf("%-10s %6d %3d | %12llu %12llu %10llu %8.2fx | %10.4f %10.4f\n",
                report.name.c_str(), report.num_nodes, report.channels,
                static_cast<unsigned long long>(report.dfs_expansions_unseeded),
                static_cast<unsigned long long>(report.dfs_expansions_seeded),
                static_cast<unsigned long long>(report.dominance_skips),
                report.seeding_reduction, report.min_seconds,
                report.median_seconds);
  }
}

bool WriteJson(const std::string& path,
               const std::vector<InstanceReport>& reports, int repeats) {
  std::string text;
  bcast::obs::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench");
  json.String("exact_search");
  json.Key("repeats");
  json.Int(repeats);
  json.Key("host_hardware_concurrency");
  json.UInt(std::thread::hardware_concurrency());
  json.Key("instances");
  json.BeginArray();
  for (const InstanceReport& report : reports) {
    json.BeginObject();
    json.Key("name");
    json.String(report.name);
    json.Key("fanout");
    json.Int(report.fanout);
    json.Key("depth");
    json.Int(report.depth);
    json.Key("num_nodes");
    json.Int(report.num_nodes);
    json.Key("channels");
    json.Int(report.channels);
    json.Key("adw");
    json.Double(report.adw);
    json.Key("dfs_expansions_unseeded");
    json.UInt(report.dfs_expansions_unseeded);
    json.Key("dfs_expansions_seeded");
    json.UInt(report.dfs_expansions_seeded);
    json.Key("dominance_skips");
    json.UInt(report.dominance_skips);
    json.Key("seeding_reduction");
    json.Double(report.seeding_reduction);
    json.Key("min_seconds");
    json.Double(report.min_seconds);
    json.Key("median_seconds");
    json.Double(report.median_seconds);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  text += '\n';
  bcast::Status status = bcast::obs::WriteTextFile(path, text);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path = "BENCH_exact_search.json";
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats < 1) repeats = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_exact_search [--json[=path]] [--repeats N]\n");
      return 2;
    }
  }

  // Instance-size grid: depth-3 full balanced trees (1 + m + m^2 nodes).
  // m = 4, k = 2 is the hardest cell; bigger fanouts blow past the exact
  // regime the paper itself stays in (Section 4.1).
  std::vector<InstanceReport> reports;
  const std::pair<int, int> grid[] = {{3, 2}, {3, 3}, {4, 2}, {4, 3}};
  for (const auto& [fanout, channels] : grid) {
    const int depth = 3;
    int leaves = 1;
    for (int level = 1; level < depth; ++level) leaves *= fanout;
    bcast::Rng rng(0xBE7Cu + static_cast<uint64_t>(fanout * 100 + channels));
    std::vector<double> weights =
        bcast::UniformWeights(&rng, leaves, 1.0, 100.0);
    auto tree = bcast::MakeFullBalancedTree(fanout, depth, weights);
    if (!tree.ok()) {
      std::fprintf(stderr, "tree: %s\n", tree.status().ToString().c_str());
      return 1;
    }
    std::string name = "m" + std::to_string(fanout) + "_d" +
                       std::to_string(depth) + "_k" + std::to_string(channels);
    if (!RunInstance(name, *tree, fanout, depth, channels, repeats,
                     &reports)) {
      return 1;
    }
  }

  // Skewed random families (depth 0 = not a balanced tree; fanout = max).
  // rand13 is the deepest search of the small suite (regression-gate
  // ballast); rand11 is the family where the SortingHeuristic incumbent is
  // near-optimal and the seeded search expands >= 2x fewer nodes; deep18
  // (max_fanout 2 — near-chain shape, the worst case for the bound) is where
  // transpositions abound and the memo cuts expansions by an order of
  // magnitude.
  struct RandomFamily {
    uint64_t seed;
    int num_data;
    int max_fanout;
    const char* prefix;
  };
  const RandomFamily random_families[] = {{0xA110C, 13, 3, "rand13"},
                                          {3, 11, 3, "rand11"},
                                          {2, 18, 2, "deep18"}};
  for (const RandomFamily& family : random_families) {
    for (int channels : {2, 3}) {
      bcast::Rng rng(family.seed);
      bcast::IndexTree tree =
          bcast::MakeRandomTree(&rng, family.num_data, family.max_fanout);
      std::string name =
          std::string(family.prefix) + "_k" + std::to_string(channels);
      if (!RunInstance(name, tree, family.max_fanout, /*depth=*/0, channels,
                       repeats, &reports)) {
        return 1;
      }
    }
  }

  PrintTable(reports);
  if (json) {
    if (!WriteJson(json_path, reports, repeats)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
