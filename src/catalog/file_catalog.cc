#include "catalog/file_catalog.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "catalog/binary_io.h"
#include "common/check.h"
#include "common/string_util.h"

namespace locaware::catalog {

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

Status FileCatalog::SaveBinary(const std::string& path) const {
  if (keywords_per_file_ == 0) {
    return Status::FailedPrecondition("empty catalog; nothing to serialize");
  }
  binio::Writer w;
  w.U32(static_cast<uint32_t>(keywords_per_file_));
  size_t string_bytes = 0;
  for (const std::string& word : keyword_table_) string_bytes += word.size();
  w.U64(keyword_table_.size());
  w.U64(string_bytes);
  w.U64(files_.size());
  for (const std::string& word : keyword_table_) {
    w.U32(static_cast<uint32_t>(word.size()));
  }
  for (const std::string& word : keyword_table_) w.Bytes(word.data(), word.size());
  for (const FileEntry& entry : files_) {
    if (entry.keywords.size() != keywords_per_file_) {
      return Status::Internal("file '" + entry.filename +
                              "' violates the fixed keywords-per-file shape");
    }
    // The format reconstructs filenames as the keyword join; a catalog that
    // broke that derivation would silently rename its files on reload.
    std::vector<std::string> words;
    words.reserve(entry.keywords.size());
    for (KeywordId kw : entry.keywords) words.push_back(keyword(kw));
    if (Join(words, " ") != entry.filename) {
      return Status::Internal("filename '" + entry.filename +
                              "' is not the join of its keywords");
    }
    for (KeywordId kw : entry.keywords) w.U32(static_cast<uint32_t>(kw));
  }
  return binio::WriteFile(path, binio::kCatalogMagic, w.buffer());
}

Result<FileCatalog> FileCatalog::LoadBinary(const std::string& path) {
  auto file = binio::InputFile::Open(path);
  if (!file.ok()) return file.status();
  const binio::InputFile& in = file.ValueOrDie();
  binio::Reader r(in.data(), in.size(), path);
  LOCAWARE_RETURN_NOT_OK(r.ExpectHeader(binio::kCatalogMagic, binio::kFormatVersion));

  auto kpf_field = r.U32();
  if (!kpf_field.ok()) return kpf_field.status();
  auto num_keywords = r.U64();
  if (!num_keywords.ok()) return num_keywords.status();
  auto string_bytes = r.U64();
  if (!string_bytes.ok()) return string_bytes.status();
  auto num_files = r.U64();
  if (!num_files.ok()) return num_files.status();

  const uint64_t kpf = kpf_field.ValueOrDie();
  const uint64_t keywords = num_keywords.ValueOrDie();
  const uint64_t bytes = string_bytes.ValueOrDie();
  const uint64_t files = num_files.ValueOrDie();
  if (kpf == 0) return Status::InvalidArgument(path + ": keywords_per_file is 0");
  const uint64_t avail = r.remaining();
  // Per-count bounds first, so the expected-size arithmetic below cannot
  // overflow on a hostile header (each term is at most `avail`).
  if (keywords > avail / 4 || bytes > avail || files > avail / (4 * kpf)) {
    return Status::InvalidArgument(path + ": header counts exceed file size");
  }
  const uint64_t expect = 4 * keywords + bytes + 4 * files * kpf;
  if (avail != expect) {
    return Status::InvalidArgument(
        path + ": section sizes disagree with file size (expected " +
        std::to_string(expect) + " payload bytes, have " + std::to_string(avail) + ")");
  }

  std::vector<uint32_t> lengths(keywords);
  for (uint64_t i = 0; i < keywords; ++i) {
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

  FileCatalog cat;
  cat.keywords_per_file_ = static_cast<size_t>(kpf);
  {
    // Build the symbol table and its derived constants exactly as Generate
    // does, rejecting empty or duplicate words before touching the maps.
    std::unordered_set<std::string_view> distinct;
    distinct.reserve(keywords);
    size_t offset = 0;
    for (uint64_t i = 0; i < keywords; ++i) {
      std::string_view word(reinterpret_cast<const char*>(chars) + offset, lengths[i]);
      offset += lengths[i];
      if (word.empty()) {
        return Status::InvalidArgument(path + ": empty keyword in string table");
      }
      if (!distinct.insert(word).second) {
        return Status::InvalidArgument(path + ": duplicate keyword '" +
                                       std::string(word) + "'");
      }
      cat.keyword_table_.emplace_back(word);
    }
  }
  cat.keyword_fnv_.reserve(keywords);
  cat.keyword_bloom_.reserve(keywords);
  for (const std::string& word : cat.keyword_table_) {
    cat.keyword_fnv_.push_back(Fnv1a64(word));
    cat.keyword_bloom_.push_back(BloomKeyHash(word));
  }
  cat.keyword_ids_.reserve(keywords);
  for (KeywordId kw = 0; kw < cat.keyword_table_.size(); ++kw) {
    cat.keyword_ids_.try_emplace(cat.keyword_table_[kw], kw);
  }
  // Reserved for the full count up front: filename_index_ holds views into
  // the entries' filename strings, which must never relocate (same contract
  // as Generate).
  cat.files_.reserve(files);
  cat.signatures_.reserve(files);
  cat.filename_index_.reserve(files);
  for (uint64_t f = 0; f < files; ++f) {
    FileEntry entry;
    entry.keywords.reserve(kpf);
    std::vector<std::string> words;
    words.reserve(kpf);
    for (uint64_t k = 0; k < kpf; ++k) {
      const uint32_t kw = r.U32().ValueOrDie();  // sized by the exact-size check
      if (kw >= keywords) {
        return Status::InvalidArgument(path + ": file " + std::to_string(f) +
                                       " references keyword " + std::to_string(kw) +
                                       " out of range");
      }
      entry.keywords.push_back(kw);
      words.push_back(cat.keyword_table_[kw]);
    }
    entry.sorted_keywords = entry.keywords;
    std::sort(entry.sorted_keywords.begin(), entry.sorted_keywords.end());
    for (size_t k = 1; k < entry.sorted_keywords.size(); ++k) {
      if (entry.sorted_keywords[k] == entry.sorted_keywords[k - 1]) {
        return Status::InvalidArgument(path + ": file " + std::to_string(f) +
                                       " repeats a keyword");
      }
    }
    entry.filename = Join(words, " ");
    entry.set_fnv = cat.CanonicalSetFnv(entry.keywords);
    const FileId fid = static_cast<FileId>(f);
    cat.signatures_.push_back(KeywordSignature(entry.keywords));
    cat.files_.push_back(std::move(entry));
    if (!cat.filename_index_.try_emplace(cat.files_.back().filename, fid).second) {
      return Status::InvalidArgument(path + ": duplicate filename '" +
                                     cat.files_.back().filename + "'");
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
