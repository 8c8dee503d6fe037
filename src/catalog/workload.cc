#include "catalog/workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "catalog/binary_io.h"
#include "common/check.h"
#include "common/string_util.h"

namespace locaware::catalog {

Result<QueryWorkload> QueryWorkload::Generate(const WorkloadConfig& config,
                                              const FileCatalog& catalog,
                                              size_t num_peers, Rng* rng) {
  if (num_peers == 0) return Status::InvalidArgument("num_peers must be > 0");
  if (config.query_rate_per_peer_s <= 0) {
    return Status::InvalidArgument("query rate must be > 0");
  }
  if (config.min_query_keywords == 0 ||
      config.min_query_keywords > config.max_query_keywords) {
    return Status::InvalidArgument("query keyword band invalid");
  }

  QueryWorkload wl;

  // Popularity rank -> file: a random permutation so that file ids and
  // popularity are uncorrelated.
  wl.rank_to_file_.resize(catalog.num_files());
  std::iota(wl.rank_to_file_.begin(), wl.rank_to_file_.end(), 0);
  rng->Shuffle(&wl.rank_to_file_);
  wl.file_to_rank_.resize(catalog.num_files());
  for (size_t rank = 0; rank < wl.rank_to_file_.size(); ++rank) {
    wl.file_to_rank_[wl.rank_to_file_[rank]] = static_cast<uint32_t>(rank);
  }

  ZipfDistribution zipf(catalog.num_files(), config.zipf_exponent);

  // Aggregate Poisson process: network-wide rate = per-peer rate * N, with a
  // uniformly random requester per arrival (equivalent to N independent
  // processes, cheaper to generate in one stream).
  const double network_rate =
      config.query_rate_per_peer_s * static_cast<double>(num_peers);
  double now_s = 0.0;
  wl.queries_.reserve(config.num_queries);
  for (uint64_t i = 0; i < config.num_queries; ++i) {
    now_s += rng->Exponential(network_rate);

    QueryEvent ev;
    ev.id = i;
    ev.requester = static_cast<PeerId>(rng->UniformInt(0, num_peers - 1));
    ev.target = wl.rank_to_file_[zipf.Sample(rng)];
    ev.submit_time = sim::FromSeconds(now_s);

    const auto& kws = catalog.keywords(ev.target);
    const size_t max_x = std::min(config.max_query_keywords, kws.size());
    const size_t min_x = std::min(config.min_query_keywords, max_x);
    const size_t x = static_cast<size_t>(rng->UniformInt(min_x, max_x));
    for (size_t pos : rng->SampleIndices(kws.size(), x)) {
      ev.keywords.push_back(kws[pos]);
    }
    wl.queries_.push_back(std::move(ev));
  }
  return wl;
}

FileId QueryWorkload::FileAtRank(size_t rank) const {
  LOCAWARE_CHECK_LT(rank, rank_to_file_.size())
      << "rank out of range (or workload loaded from trace)";
  return rank_to_file_[rank];
}

uint32_t QueryWorkload::RankOfFile(FileId file) const {
  if (file >= file_to_rank_.size()) return kUnknownRank;
  return file_to_rank_[file];
}

Status QueryWorkload::SaveTrace(const std::string& path,
                                const FileCatalog& catalog) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open trace for writing: " + path);
  out << "# locaware-trace-v1: id requester target submit_us keywords...\n";
  for (const QueryEvent& q : queries_) {
    out << q.id << ' ' << q.requester << ' ' << q.target << ' ' << q.submit_time;
    for (KeywordId kw : q.keywords) out << ' ' << catalog.keyword(kw);
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<QueryWorkload> QueryWorkload::LoadTrace(const std::string& path,
                                               FileCatalog* catalog) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open trace: " + path);
  // Parse and validate the entire trace before interning anything: a
  // rejected trace must not leave freshly minted ids behind in the caller's
  // catalog (that would silently fork the "same seed => same catalog"
  // reproducibility guarantee across runs that saw different bad inputs).
  struct ParsedEvent {
    QueryEvent ev;
    std::vector<std::string> words;
  };
  std::vector<ParsedEvent> parsed;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    ParsedEvent pe;
    long long submit = 0;
    if (!(fields >> pe.ev.id >> pe.ev.requester >> pe.ev.target >> submit)) {
      return Status::InvalidArgument("malformed trace line " + std::to_string(lineno));
    }
    pe.ev.submit_time = submit;
    std::string word;
    while (fields >> word) {
      // A repeated keyword would make the canonical set hash and the wire
      // byte charge ambiguous (set semantics vs multiset encoding); the edge
      // rejects it loudly rather than canonicalizing silently.
      if (std::find(pe.words.begin(), pe.words.end(), word) != pe.words.end()) {
        return Status::InvalidArgument("trace line " + std::to_string(lineno) +
                                       " repeats keyword '" + word + "'");
      }
      pe.words.push_back(std::move(word));
    }
    if (pe.words.empty()) {
      return Status::InvalidArgument("trace line " + std::to_string(lineno) +
                                     " has no keywords");
    }
    parsed.push_back(std::move(pe));
  }

  // The trace is valid: now intern. Minting an id for a word no generated
  // filename carries is deliberate — such a query runs and simply never
  // matches, as in the string era.
  QueryWorkload wl;
  wl.queries_.reserve(parsed.size());
  for (ParsedEvent& pe : parsed) {
    for (const std::string& w : pe.words) {
      pe.ev.keywords.push_back(catalog->InternKeyword(w));
    }
    wl.queries_.push_back(std::move(pe.ev));
  }
  return wl;
}

namespace {

/// Fixed-width on-disk query record (BINARY_FORMAT.md). Field-by-field
/// little-endian encoding, 32 bytes per query.
struct TraceRecord {
  uint64_t id;
  uint64_t submit_us;
  uint32_t requester;
  uint32_t target;
  uint32_t kw_begin;  ///< first index into the keyword-ref array
  uint32_t kw_count;
};
constexpr size_t kTraceRecordBytes = 32;

}  // namespace

Status QueryWorkload::SaveBinary(const std::string& path,
                                 const FileCatalog& catalog) const {
  // String table in first-occurrence order over the queries' keywords: the
  // loader interns table entries in order, so it mints the same ids the text
  // loader would — the root of the text-vs-binary determinism contract.
  std::unordered_map<KeywordId, uint32_t> table_index;
  std::vector<KeywordId> table;
  std::vector<uint32_t> refs;
  std::vector<TraceRecord> records;
  records.reserve(queries_.size());
  for (const QueryEvent& q : queries_) {
    if (q.keywords.empty()) {
      return Status::InvalidArgument("query " + std::to_string(q.id) +
                                     " has no keywords; refusing to serialize");
    }
    TraceRecord rec;
    rec.id = q.id;
    rec.submit_us = static_cast<uint64_t>(q.submit_time);
    rec.requester = q.requester;
    rec.target = q.target;
    rec.kw_begin = static_cast<uint32_t>(refs.size());
    rec.kw_count = static_cast<uint32_t>(q.keywords.size());
    for (KeywordId kw : q.keywords) {
      auto [it, inserted] = table_index.emplace(kw, static_cast<uint32_t>(table.size()));
      if (inserted) table.push_back(kw);
      refs.push_back(it->second);
    }
    records.push_back(rec);
  }

  binio::Writer w;
  size_t string_bytes = 0;
  for (KeywordId kw : table) string_bytes += catalog.keyword(kw).size();
  w.U64(table.size());
  w.U64(string_bytes);
  w.U64(refs.size());
  w.U64(records.size());
  for (KeywordId kw : table) w.U32(static_cast<uint32_t>(catalog.keyword(kw).size()));
  for (KeywordId kw : table) {
    const std::string& word = catalog.keyword(kw);
    w.Bytes(word.data(), word.size());
  }
  for (uint32_t ref : refs) w.U32(ref);
  for (const TraceRecord& rec : records) {
    w.U64(rec.id);
    w.U64(rec.submit_us);
    w.U32(rec.requester);
    w.U32(rec.target);
    w.U32(rec.kw_begin);
    w.U32(rec.kw_count);
  }
  return binio::WriteFile(path, binio::kTraceMagic, w.buffer());
}

Result<QueryWorkload> QueryWorkload::LoadBinary(const std::string& path,
                                                FileCatalog* catalog) {
  auto file = binio::InputFile::Open(path);
  if (!file.ok()) return file.status();
  const binio::InputFile& in = file.ValueOrDie();
  binio::Reader r(in.data(), in.size(), path);
  LOCAWARE_RETURN_NOT_OK(r.ExpectHeader(binio::kTraceMagic, binio::kFormatVersion));

  auto num_strings = r.U64();
  if (!num_strings.ok()) return num_strings.status();
  auto string_bytes = r.U64();
  if (!string_bytes.ok()) return string_bytes.status();
  auto num_refs = r.U64();
  if (!num_refs.ok()) return num_refs.status();
  auto num_records = r.U64();
  if (!num_records.ok()) return num_records.status();

  // Exact-size check up front: the section sizes must tile the remainder of
  // the file, which rejects truncation and trailing garbage in one shot
  // (and caps the loop bounds below before any allocation is sized by them).
  const uint64_t strings = num_strings.ValueOrDie();
  const uint64_t bytes = string_bytes.ValueOrDie();
  const uint64_t refs = num_refs.ValueOrDie();
  const uint64_t records = num_records.ValueOrDie();
  const uint64_t avail = r.remaining();
  // Per-count bounds first, so the expected-size arithmetic below cannot
  // overflow on a hostile header (each term is at most `avail`).
  if (strings > avail / 4 || bytes > avail || refs > avail / 4 ||
      records > avail / kTraceRecordBytes) {
    return Status::InvalidArgument(path + ": header counts exceed file size");
  }
  const uint64_t expect =
      4 * strings + bytes + 4 * refs + kTraceRecordBytes * records;
  if (r.remaining() != expect) {
    return Status::InvalidArgument(
        path + ": section sizes disagree with file size (expected " +
        std::to_string(expect) + " payload bytes, have " +
        std::to_string(r.remaining()) + ")");
  }

  // Resolve the string table into views over the mapped bytes.
  std::vector<uint32_t> lengths(strings);
  for (uint64_t i = 0; i < strings; ++i) {
    lengths[i] = r.U32().ValueOrDie();  // sized by the exact-size check
  }
  uint64_t length_sum = 0;
  for (uint32_t len : lengths) length_sum += len;
  if (length_sum != bytes) {
    return Status::InvalidArgument(path + ": string lengths sum to " +
                                   std::to_string(length_sum) + ", header says " +
                                   std::to_string(bytes));
  }
  const uint8_t* chars = r.View(bytes).ValueOrDie();
  std::vector<std::string_view> words(strings);
  std::unordered_set<std::string_view> distinct;
  distinct.reserve(strings);
  size_t offset = 0;
  for (uint64_t i = 0; i < strings; ++i) {
    words[i] = std::string_view(reinterpret_cast<const char*>(chars) + offset,
                                lengths[i]);
    offset += lengths[i];
    if (words[i].empty()) {
      return Status::InvalidArgument(path + ": empty keyword in string table");
    }
    if (!distinct.insert(words[i]).second) {
      return Status::InvalidArgument(path + ": duplicate string-table entry '" +
                                     std::string(words[i]) + "'");
    }
  }

  const uint8_t* ref_bytes = r.View(4 * refs).ValueOrDie();
  auto ref_at = [ref_bytes](uint64_t i) {
    const uint8_t* p = ref_bytes + 4 * i;
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
  };
  for (uint64_t i = 0; i < refs; ++i) {
    if (ref_at(i) >= strings) {
      return Status::InvalidArgument(path + ": keyword ref " + std::to_string(ref_at(i)) +
                                     " out of range");
    }
  }

  // Validate every record fully before interning anything (same contract as
  // LoadTrace: a rejected trace must not mint ids into the caller's catalog).
  std::vector<TraceRecord> recs(records);
  for (uint64_t i = 0; i < records; ++i) {
    TraceRecord& rec = recs[i];
    rec.id = r.U64().ValueOrDie();
    rec.submit_us = r.U64().ValueOrDie();
    rec.requester = r.U32().ValueOrDie();
    rec.target = r.U32().ValueOrDie();
    rec.kw_begin = r.U32().ValueOrDie();
    rec.kw_count = r.U32().ValueOrDie();
    if (rec.kw_count == 0) {
      return Status::InvalidArgument(path + ": record " + std::to_string(i) +
                                     " has no keywords");
    }
    if (rec.kw_begin > refs || rec.kw_count > refs - rec.kw_begin) {
      return Status::InvalidArgument(path + ": record " + std::to_string(i) +
                                     " keyword range out of bounds");
    }
    if (rec.submit_us > static_cast<uint64_t>(INT64_MAX)) {
      return Status::InvalidArgument(path + ": record " + std::to_string(i) +
                                     " submit time overflows");
    }
    // Table entries are distinct strings, so ref equality is string
    // equality; queries are short, so the pairwise scan beats a hash set.
    std::unordered_set<uint32_t> big;
    for (uint32_t a = 0; a < rec.kw_count; ++a) {
      const uint32_t ref = ref_at(rec.kw_begin + a);
      bool repeated;
      if (rec.kw_count <= 8) {
        repeated = false;
        for (uint32_t b = 0; b < a && !repeated; ++b) {
          repeated = ref_at(rec.kw_begin + b) == ref;
        }
      } else {
        repeated = !big.insert(ref).second;
      }
      if (repeated) {
        return Status::InvalidArgument(path + ": record " + std::to_string(i) +
                                       " repeats keyword '" + std::string(words[ref]) +
                                       "'");
      }
    }
  }

  // Valid: intern the table in order (= first-occurrence order over the
  // queries, by the writer's construction), then assemble the stream.
  std::vector<KeywordId> ids(strings);
  for (uint64_t i = 0; i < strings; ++i) ids[i] = catalog->InternKeyword(words[i]);
  QueryWorkload wl;
  wl.queries_.reserve(records);
  for (const TraceRecord& rec : recs) {
    QueryEvent ev;
    ev.id = rec.id;
    ev.requester = rec.requester;
    ev.target = rec.target;
    ev.submit_time = static_cast<sim::SimTime>(rec.submit_us);
    ev.keywords.reserve(rec.kw_count);
    for (uint32_t k = 0; k < rec.kw_count; ++k) {
      ev.keywords.push_back(ids[ref_at(rec.kw_begin + k)]);
    }
    wl.queries_.push_back(std::move(ev));
  }
  return wl;
}

Result<QueryWorkload> QueryWorkload::LoadAuto(const std::string& path,
                                              FileCatalog* catalog) {
  auto is_binary = binio::FileStartsWith(path, binio::kTraceMagic);
  if (!is_binary.ok()) return is_binary.status();
  return is_binary.ValueOrDie() ? LoadBinary(path, catalog) : LoadTrace(path, catalog);
}

std::vector<std::vector<FileId>> AssignInitialFiles(size_t num_peers,
                                                    size_t files_per_peer,
                                                    const FileCatalog& catalog,
                                                    Rng* rng) {
  LOCAWARE_CHECK_LE(files_per_peer, catalog.num_files());
  std::vector<std::vector<FileId>> placement(num_peers);
  for (auto& shared : placement) {
    for (size_t idx : rng->SampleIndices(catalog.num_files(), files_per_peer)) {
      shared.push_back(static_cast<FileId>(idx));
    }
  }
  return placement;
}

}  // namespace locaware::catalog
