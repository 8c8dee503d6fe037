#include "core/group_hash.h"

#include <map>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace locaware::core {
namespace {

/// `prefix` followed by `n` in decimal. Built by appending: gcc 12 reports a
/// false -Wrestrict on `"literal" + std::to_string(n)` in optimized builds.
std::string Numbered(std::string_view prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

TEST(GroupHashTest, KeywordOrderDoesNotMatter) {
  // A full-keyword query must land in the filename's group whatever the
  // keyword order — that is what makes Dicas work for "filename search".
  const GroupId a = GroupOfKeywords({"alpha", "beta", "gamma"}, 8);
  EXPECT_EQ(GroupOfKeywords({"gamma", "alpha", "beta"}, 8), a);
  EXPECT_EQ(GroupOfKeywords({"beta", "gamma", "alpha"}, 8), a);
}

TEST(GroupHashTest, FilenameAndKeywordsAgree) {
  EXPECT_EQ(GroupOfFilename("alpha beta gamma", 8),
            GroupOfKeywords({"alpha", "beta", "gamma"}, 8));
  // Tokenization normalizes case and separators first.
  EXPECT_EQ(GroupOfFilename("Alpha-Beta_GAMMA", 8),
            GroupOfKeywords({"alpha", "beta", "gamma"}, 8));
}

TEST(GroupHashTest, PartialQueryUsuallyMisses) {
  // The keyword-search weakness: a query with fewer keywords hashes to an
  // unrelated group. Verify it differs for at least most of a sample.
  int differs = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string a = Numbered("kw", 3 * i);
    const std::string b = Numbered("kw", 3 * i + 1);
    const std::string c = Numbered("kw", 3 * i + 2);
    if (GroupOfKeywords({a, b, c}, 8) != GroupOfKeywords({a, b}, 8)) ++differs;
  }
  EXPECT_GT(differs, 150);  // ~7/8 expected
}

TEST(GroupHashTest, GroupsAreInRange) {
  for (int m : {1, 2, 4, 16}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LT(GroupOfKeyword(Numbered("kw", i), m), m);
      EXPECT_LT(GroupOfKeywords({Numbered("a", i), "b"}, m), m);
    }
  }
}

TEST(GroupHashTest, GroupsAreBalanced) {
  std::map<GroupId, int> counts;
  for (int i = 0; i < 40000; ++i) {
    ++counts[GroupOfKeyword(Numbered("keyword", i), 4)];
  }
  for (const auto& [g, c] : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(GroupHashTest, KeywordGroupsDeduplicates) {
  // Find two keywords in the same group, then check dedup.
  std::string a = "aaa", match;
  const GroupId ga = GroupOfKeyword(a, 2);
  for (int i = 0; i < 100; ++i) {
    std::string cand = Numbered("kw", i);
    if (GroupOfKeyword(cand, 2) == ga) {
      match = cand;
      break;
    }
  }
  ASSERT_FALSE(match.empty());
  EXPECT_EQ(KeywordGroups({a, match}, 2).size(), 1u);
}

TEST(GroupHashTest, KeywordGroupsCoverEachKeyword) {
  const std::vector<std::string> kws{"alpha", "beta", "gamma"};
  const auto groups = KeywordGroups(kws, 16);
  for (const auto& kw : kws) {
    const GroupId g = GroupOfKeyword(kw, 16);
    EXPECT_NE(std::find(groups.begin(), groups.end(), g), groups.end());
  }
  EXPECT_LE(groups.size(), 3u);
}

TEST(GroupHashTest, SingleGroupDegenerates) {
  EXPECT_EQ(GroupOfKeywords({"x", "y"}, 1), 0u);
  EXPECT_EQ(GroupOfKeyword("x", 1), 0u);
}

TEST(GroupHashTest, ZeroGroupsDies) {
  EXPECT_DEATH(GroupOfKeyword("x", 0), "CHECK");
}

}  // namespace
}  // namespace locaware::core
