// micro_intern: string plane vs id plane, head to head.
//
// Measures the three operations the interning PR moved off strings:
//   * keyword-match — "does file f satisfy query q" (the per-file check the
//     catalog and every file store answer runs): string-compare containment
//     vs FileCatalog::MatchesSorted, the production check (signature
//     prefilter, then the sorted-id merge), with each query's signature
//     computed once as the engine does.
//   * ri-lookup — ResponseIndex::LookupByKeywords on a paper-sized 50-entry
//     index: the id path (a scan rejecting on each entry's keyword
//     signature before the sorted-id merge) vs a faithful reimplementation
//     of the string-era index (full scan with string compares).
//   * bloom-probe — Bloom-filter membership for a 3-keyword query: Murmur3
//     per string vs the catalog's precomputed per-keyword 64-bit hash pair.
//
// Emits a human table plus JSON (common/json_writer) so BENCH_*.json
// trajectories can track the ratio over time. Usage:
//   micro_intern [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cache/response_index.h"
#include "catalog/file_catalog.h"
#include "common/json_writer.h"
#include "common/keyword_set.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace {

using namespace locaware;
using Clock = std::chrono::steady_clock;

/// The string-era response index, reimplemented as the baseline: entries
/// keyed by filename, looked up by scanning every entry with string-compare
/// containment (what cache/response_index.cc did before interning).
class StringIndexBaseline {
 public:
  void Add(const std::string& filename, std::vector<std::string> keywords) {
    entries_.emplace(filename, std::move(keywords));
  }

  size_t LookupByKeywords(const std::vector<std::string>& query) const {
    size_t hits = 0;
    for (const auto& [name, keywords] : entries_) {
      if (ContainsAllKeywords(keywords, query)) ++hits;
    }
    return hits;
  }

 private:
  std::unordered_map<std::string, std::vector<std::string>> entries_;
};

/// Runs `op(i)` repeatedly for ~min_seconds and returns ops/second.
template <typename Op>
double Throughput(Op&& op, double min_seconds = 0.4) {
  // Warm-up pass so first-touch effects do not land in the timed region.
  for (size_t i = 0; i < 1000; ++i) op(i);
  size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (size_t burst = 0; burst < 2000; ++burst) op(iters++);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(iters) / elapsed;
}

volatile size_t g_sink = 0;  // defeats dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  // The paper's catalog shape; the RI holds the paper's 50 entries.
  Rng rng(2026);
  auto catalog = std::move(catalog::FileCatalog::Generate(
                               catalog::CatalogConfig{}, &rng))
                     .ValueOrDie();

  constexpr size_t kResident = 50;
  cache::ResponseIndexConfig ri_cfg;
  ri_cfg.max_filenames = kResident;
  cache::ResponseIndex id_index(ri_cfg);
  StringIndexBaseline string_index;
  for (FileId f = 0; f < kResident; ++f) {
    id_index.AddProvider(f, catalog.sorted_keywords(f),
                         cache::ProviderEntry{1, 0, 0}, 0);
    std::vector<std::string> kws;
    for (KeywordId kw : catalog.keywords(f)) kws.push_back(catalog.keyword(kw));
    string_index.Add(catalog.filename(f), std::move(kws));
  }

  // Query mix: 2-keyword subsets of resident files (hits) interleaved with
  // queries for files outside the index (misses) — the hop-by-hop reality.
  struct Query {
    std::vector<KeywordId> ids;        // sorted
    std::vector<std::string> strings;  // original order
    uint64_t signature = 0;            // KeywordSignature(ids), once per query
  };
  std::vector<Query> queries;
  Rng qrng(7);
  for (size_t i = 0; i < 256; ++i) {
    const FileId f = (i % 2 == 0)
                         ? static_cast<FileId>(qrng.UniformInt(0, kResident - 1))
                         : static_cast<FileId>(
                               qrng.UniformInt(kResident, catalog.num_files() - 1));
    Query q;
    for (size_t pos : qrng.SampleIndices(catalog.keywords(f).size(), 2)) {
      const KeywordId kw = catalog.keywords(f)[pos];
      q.ids.push_back(kw);
      q.strings.push_back(catalog.keyword(kw));
    }
    std::sort(q.ids.begin(), q.ids.end());
    q.signature = KeywordSignature(q.ids);
    queries.push_back(std::move(q));
  }

  // --- keyword-match: one file vs one query ---------------------------------
  std::vector<std::vector<std::string>> file_kw_strings;
  for (FileId f = 0; f < catalog.num_files(); ++f) {
    std::vector<std::string> kws;
    for (KeywordId kw : catalog.keywords(f)) kws.push_back(catalog.keyword(kw));
    file_kw_strings.push_back(std::move(kws));
  }
  const double match_string_ops = Throughput([&](size_t i) {
    const Query& q = queries[i & 255];
    g_sink = g_sink +
             ContainsAllKeywords(file_kw_strings[i % catalog.num_files()], q.strings);
  });
  const double match_id_ops = Throughput([&](size_t i) {
    const Query& q = queries[i & 255];
    const FileId f = static_cast<FileId>(i % catalog.num_files());
    g_sink = g_sink + catalog.MatchesSorted(f, q.ids, q.signature);
  });

  // --- ri-lookup: full 50-entry index ---------------------------------------
  const double ri_string_ops = Throughput([&](size_t i) {
    g_sink = g_sink + string_index.LookupByKeywords(queries[i & 255].strings);
  });
  const double ri_id_ops = Throughput([&](size_t i) {
    g_sink = g_sink + id_index.LookupByKeywords(queries[i & 255].ids, 1).size();
  });

  // --- bloom-probe: 3 keywords against one neighbor filter ------------------
  bloom::BloomFilter filter(1200, 4);
  for (FileId f = 0; f < kResident; ++f) {
    for (KeywordId kw : catalog.keywords(f)) {
      filter.Insert(catalog.KeywordBloomHash(kw));
    }
  }
  const double bloom_string_ops = Throughput([&](size_t i) {
    const auto& kws = file_kw_strings[i % catalog.num_files()];
    bool all = true;
    for (const std::string& kw : kws) all &= filter.MayContain(kw);
    g_sink = g_sink + all;
  });
  const double bloom_id_ops = Throughput([&](size_t i) {
    const FileId f = static_cast<FileId>(i % catalog.num_files());
    bool all = true;
    for (KeywordId kw : catalog.keywords(f)) {
      all &= filter.MayContain(catalog.KeywordBloomHash(kw));
    }
    g_sink = g_sink + all;
  });

  struct Row {
    const char* name;
    double string_ops;
    double id_ops;
  };
  const Row rows[] = {
      {"keyword_match", match_string_ops, match_id_ops},
      {"ri_lookup", ri_string_ops, ri_id_ops},
      {"bloom_probe", bloom_string_ops, bloom_id_ops},
  };

  std::printf("== micro_intern: string plane vs id plane ==\n");
  std::printf("%-16s %16s %16s %9s\n", "operation", "string ops/s", "id ops/s",
              "speedup");
  for (const Row& r : rows) {
    std::printf("%-16s %16.0f %16.0f %8.2fx\n", r.name, r.string_ops, r.id_ops,
                r.id_ops / r.string_ops);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("micro_intern");
  w.Key("resident_files");
  w.Uint(kResident);
  w.Key("results");
  w.BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.Key("operation");
    w.String(r.name);
    w.Key("string_ops_per_sec");
    w.Double(r.string_ops);
    w.Key("id_ops_per_sec");
    w.Double(r.id_ops);
    w.Key("speedup");
    w.Double(r.id_ops / r.string_ops);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string doc = w.TakeString();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << doc << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::printf("\n%s\n", doc.c_str());
  }
  return 0;
}
