// --compare: the before/after check a performance change quotes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "e2e.h"

namespace locaware::e2e {
namespace {

/// Order statistics of one end-to-end metric entry of a result document.
SampleStats EntryStats(const JsonValue& entry) {
  return {entry.Number("value"), entry.Number("value_lo"), entry.Number("value_hi"),
          entry.Number("q1"),    entry.Number("median"),   entry.Number("q3")};
}

}  // namespace

int CompareResults(const JsonValue& before, const JsonValue& after) {
  const JsonValue* meta_before = before.Find("meta");
  const JsonValue* meta_after = after.Find("meta");
  const JsonValue* workloads_before = before.Find("workloads");
  const JsonValue* workloads_after = after.Find("workloads");
  if (meta_before == nullptr || meta_after == nullptr || workloads_before == nullptr ||
      workloads_after == nullptr) {
    std::printf("compare: not a locaware_e2e result document\n");
    return 2;
  }
  if (meta_before->Number("seed") != meta_after->Number("seed") ||
      meta_before->Number("query_scale") != meta_after->Number("query_scale")) {
    std::printf("compare: different seed or query scale; counts cannot match\n");
    return 2;
  }

  std::printf("change of each end-to-end value (p10), after vs before "
              "(! = worse beyond bound, ? = unresolved: p10 range wider than bound)\n");
  std::printf("%-20s", "workload");
  for (const MetricDef& m : EndToEndMetrics()) std::printf(" %19s", m.name);
  std::printf("  deterministic counts\n");

  int regressions = 0;
  int unresolved = 0;
  int changed = 0;
  for (const auto& [name, old_run] : workloads_before->members) {
    std::printf("%-20s", name.c_str());
    const JsonValue* new_run = workloads_after->Find(name);
    if (new_run == nullptr) {
      std::printf(" missing from the second file\n");
      ++changed;
      continue;
    }
    const JsonValue* old_e2e = old_run.Find("end_to_end");
    const JsonValue* new_e2e = new_run->Find("end_to_end");
    for (const MetricDef& m : EndToEndMetrics()) {
      const JsonValue* a = old_e2e == nullptr ? nullptr : old_e2e->Find(m.name);
      const JsonValue* b = new_e2e == nullptr ? nullptr : new_e2e->Find(m.name);
      if (a == nullptr || b == nullptr || a->Number("value") == 0) {
        std::printf(" %19s", "n/a");
        continue;
      }
      const double change = b->Number("value") / a->Number("value") - 1;
      const double worse = std::string(m.better) == "lower" ? change : -change;
      const bool spread_too_wide =
          Spread(EntryStats(*a)) > m.bound || Spread(EntryStats(*b)) > m.bound;
      char mark = ' ';
      if (spread_too_wide) {
        mark = '?';
        ++unresolved;
      } else if (worse > m.bound) {
        mark = '!';
        ++regressions;
      }
      std::printf(" %17.1f%%%c", change * 100, mark);
    }

    std::vector<std::string> diffs;
    // A failed op leaves fewer samples and no digest check behind it, so a
    // document with failures is never a clean side of a comparison.
    const int old_failed = static_cast<int>(old_run.Number("ops_failed"));
    const int new_failed = static_cast<int>(new_run->Number("ops_failed"));
    if (old_failed != 0 || new_failed != 0) {
      diffs.push_back("ops_failed=" + std::to_string(old_failed) + "->" +
                      std::to_string(new_failed));
    }
    if (old_run.String("digest") != new_run->String("digest")) diffs.push_back("digest");
    const JsonValue* old_layer = old_run.Find("per_layer");
    const JsonValue* new_layer = new_run->Find("per_layer");
    for (const MetricDef& m : PerLayerMetrics()) {
      if (!m.exact || old_layer == nullptr || new_layer == nullptr) continue;
      const JsonValue* a = old_layer->Find(m.name);
      const JsonValue* b = new_layer->Find(m.name);
      if (a == nullptr || b == nullptr) continue;
      if (a->Number("value", NAN) != b->Number("value", NAN)) diffs.push_back(m.name);
    }
    if (diffs.empty()) {
      std::printf("  identical\n");
    } else {
      ++changed;
      std::printf("  CHANGED:");
      for (const std::string& d : diffs) std::printf(" %s", d.c_str());
      std::printf("\n");
    }
  }
  std::printf("compare: %d regression(s), %d unresolved, %d workload(s) with changed "
              "counts\n",
              regressions, unresolved, changed);
  return regressions == 0 && changed == 0 ? 0 : 1;
}

}  // namespace locaware::e2e
