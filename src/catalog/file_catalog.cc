#include "catalog/file_catalog.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace locaware::catalog {

// Generate is the catalog's only factory, so this loop (and InternKeyword
// for minted words) is the only code that fills the derived constants:
// FNV and Bloom hashes, sorted keyword sets, set hashes and signatures.
Result<FileCatalog> FileCatalog::Generate(const CatalogConfig& config, Rng* rng) {
  if (config.num_files == 0) {
    return Status::InvalidArgument("num_files must be > 0");
  }
  if (config.keywords_per_file == 0 ||
      config.keywords_per_file > config.keyword_pool_size) {
    return Status::InvalidArgument("keywords_per_file out of range");
  }

  KeywordPool pool(config.keyword_pool_size, rng);

  FileCatalog cat;
  cat.keywords_per_file_ = config.keywords_per_file;
  cat.keyword_table_.assign(pool.words().begin(), pool.words().end());
  cat.keyword_fnv_.reserve(cat.keyword_table_.size());
  cat.keyword_bloom_.reserve(cat.keyword_table_.size());
  for (const std::string& word : cat.keyword_table_) {
    cat.keyword_fnv_.push_back(Fnv1a64(word));
    cat.keyword_bloom_.push_back(BloomKeyHash(word));
  }
  // The keyword table is final (bar InternKeyword, which appends without
  // relocating — keyword_table_ is a deque), so its lookup map can be built
  // now; views stay valid because the catalog is move-only.
  cat.keyword_ids_.reserve(cat.keyword_table_.size());
  for (KeywordId kw = 0; kw < cat.keyword_table_.size(); ++kw) {
    cat.keyword_ids_.try_emplace(cat.keyword_table_[kw], kw);
  }
  cat.files_.reserve(config.num_files);
  cat.signatures_.reserve(config.num_files);
  cat.filename_index_.reserve(config.num_files);

  // With 9000 keywords choose-3 there are ~1.2e11 possible filenames for 3000
  // files, so collisions are rare; still, retry to guarantee uniqueness.
  // filename_index_ doubles as the uniqueness check: files_ is reserved for
  // the full count, so entries (and the strings its views point into) never
  // relocate while the loop appends.
  constexpr int kMaxAttemptsPerFile = 1000;
  std::vector<KeywordId> kw_ids(config.keywords_per_file);
  while (cat.files_.size() < config.num_files) {
    bool placed = false;
    for (int attempt = 0; attempt < kMaxAttemptsPerFile; ++attempt) {
      rng->SampleIndices(config.keyword_pool_size, std::span<KeywordId>(kw_ids));
      std::vector<std::string> kws;
      kws.reserve(kw_ids.size());
      for (KeywordId id : kw_ids) kws.push_back(pool.word(id));
      std::string name = Join(kws, " ");
      if (cat.filename_index_.contains(std::string_view{name})) continue;

      const FileId fid = static_cast<FileId>(cat.files_.size());
      FileEntry entry;
      entry.filename = std::move(name);
      entry.keywords.assign(kw_ids.begin(), kw_ids.end());
      entry.sorted_keywords = entry.keywords;
      std::sort(entry.sorted_keywords.begin(), entry.sorted_keywords.end());
      entry.set_fnv = cat.CanonicalSetFnv(entry.keywords);
      cat.signatures_.push_back(KeywordSignature(entry.keywords));
      cat.files_.push_back(std::move(entry));
      cat.filename_index_.try_emplace(cat.files_.back().filename, fid);
      placed = true;
      break;
    }
    if (!placed) {
      return Status::Internal("could not generate a unique filename");
    }
  }
  return cat;
}

const std::string& FileCatalog::keyword(KeywordId kw) const {
  LOCAWARE_CHECK_LT(kw, keyword_table_.size());
  return keyword_table_[kw];
}

KeywordId FileCatalog::LookupKeyword(std::string_view word) const {
  auto it = keyword_ids_.find(word);
  if (it == keyword_ids_.end()) return kInvalidKeyword;
  return it->second;
}

uint64_t FileCatalog::KeywordFnv(KeywordId kw) const {
  LOCAWARE_CHECK_LT(kw, keyword_fnv_.size());
  return keyword_fnv_[kw];
}

KeyHash128 FileCatalog::KeywordBloomHash(KeywordId kw) const {
  LOCAWARE_CHECK_LT(kw, keyword_bloom_.size());
  return keyword_bloom_[kw];
}

const std::string& FileCatalog::filename(FileId f) const {
  LOCAWARE_CHECK_LT(f, files_.size());
  return files_[f].filename;
}

const std::vector<KeywordId>& FileCatalog::keywords(FileId f) const {
  LOCAWARE_CHECK_LT(f, files_.size());
  return files_[f].keywords;
}

const std::vector<KeywordId>& FileCatalog::sorted_keywords(FileId f) const {
  LOCAWARE_CHECK_LT(f, files_.size());
  return files_[f].sorted_keywords;
}

uint64_t FileCatalog::FileSetFnv(FileId f) const {
  LOCAWARE_CHECK_LT(f, files_.size());
  return files_[f].set_fnv;
}

uint64_t FileCatalog::FileSignature(FileId f) const {
  LOCAWARE_CHECK_LT(f, signatures_.size());
  return signatures_[f];
}

bool FileCatalog::MatchesSorted(FileId f, std::span<const KeywordId> sorted_query,
                                uint64_t query_signature) const {
  LOCAWARE_CHECK_LT(f, files_.size());
  if ((signatures_[f] & query_signature) != query_signature) return false;
  return ContainsAllIds(files_[f].sorted_keywords, sorted_query);
}

bool FileCatalog::Matches(FileId f, std::span<const KeywordId> sorted_query) const {
  // Unsorted queries would produce silent false negatives in the linear
  // merge; the check is two compares for the common 1..3-keyword query.
  LOCAWARE_CHECK(std::is_sorted(sorted_query.begin(), sorted_query.end()))
      << "Matches query must be sorted ascending";
  return MatchesSorted(f, sorted_query, KeywordSignature(sorted_query));
}

FileId FileCatalog::LookupFilename(const std::string& filename) const {
  auto it = filename_index_.find(std::string_view{filename});
  if (it == filename_index_.end()) return kInvalidFile;
  return it->second;
}

KeywordId FileCatalog::InternKeyword(std::string_view word) {
  const KeywordId existing = LookupKeyword(word);
  if (existing != kInvalidKeyword) return existing;
  const KeywordId kw = static_cast<KeywordId>(keyword_table_.size());
  keyword_table_.emplace_back(word);
  const std::string& stored = keyword_table_.back();
  keyword_fnv_.push_back(Fnv1a64(stored));
  keyword_bloom_.push_back(BloomKeyHash(stored));
  keyword_ids_.try_emplace(stored, kw);
  return kw;
}

Result<std::vector<KeywordId>> FileCatalog::InternQueryKeywords(
    const std::vector<std::string>& words) const {
  std::vector<KeywordId> ids;
  ids.reserve(words.size());
  for (const std::string& word : words) {
    const KeywordId kw = LookupKeyword(word);
    if (kw == kInvalidKeyword) {
      return Status::InvalidArgument("unknown keyword: " + word);
    }
    ids.push_back(kw);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

uint64_t FileCatalog::CanonicalSetFnv(std::span<const KeywordId> kws) const {
  // The canonical preimage is the lexicographically sorted keywords joined
  // by ' ' (what the string era hashed), folded incrementally so the joined
  // string is never materialized. Runs at the edges (query submit, file
  // generation), not per hop.
  std::vector<std::string_view> sorted;
  sorted.reserve(kws.size());
  for (KeywordId kw : kws) sorted.push_back(keyword(kw));
  std::sort(sorted.begin(), sorted.end());
  uint64_t hash = kFnv1a64Init;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) hash = Fnv1a64Append(hash, " ");
    hash = Fnv1a64Append(hash, sorted[i]);
  }
  return hash;
}

std::string FileCatalog::KeywordsToString(const std::vector<KeywordId>& kws) const {
  std::string out;
  for (size_t i = 0; i < kws.size(); ++i) {
    if (i > 0) out += ' ';
    out += keyword(kws[i]);
  }
  return out;
}

size_t FileCatalog::KeywordWireBytes(KeywordId kw) const {
  return keyword(kw).size();
}

size_t FileCatalog::FilenameWireBytes(FileId f) const {
  return filename(f).size();
}

}  // namespace locaware::catalog
