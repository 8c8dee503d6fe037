// Fixed-seed fuzz of the config parser's two text entry points: a whole
// config document (ParseConfig) and SetConfigValue, which the CLI's --set
// and the bench flags call. Each case sets one key of the key table on a
// valid config to a hostile value: negative, overflowing, NaN or infinite,
// empty, an unknown enum name, trailing garbage, or a line with no key at
// all. Every case must either fail with a Status, or yield a config whose
// FormatConfig -> ParseConfig round trip is identical; a CHECK abort or an
// undefined conversion (which the sanitizer build reports) fails the suite.
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/config_io.h"

namespace locaware::core {
namespace {

enum class Hostile {
  kNegative,
  kOverflow,
  kNonFinite,
  kEmpty,
  kUnknownEnum,
  kTrailingGarbage,
  kNoKey
};
constexpr Hostile kAllHostile[] = {Hostile::kNegative,        Hostile::kOverflow,
                                   Hostile::kNonFinite,       Hostile::kEmpty,
                                   Hostile::kUnknownEnum,     Hostile::kTrailingGarbage,
                                   Hostile::kNoKey};

std::string Digits(Rng& rng, size_t min_len, size_t max_len) {
  const size_t len = rng.UniformInt(min_len, max_len);
  std::string s(1, static_cast<char>('1' + rng.UniformInt(0, 8)));
  while (s.size() < len) s += static_cast<char>('0' + rng.UniformInt(0, 9));
  return s;
}

/// A value of class `kind` (kNoKey returns an ordinary value; the line
/// builder drops the key).
std::string HostileValue(Hostile kind, Rng& rng) {
  switch (kind) {
    case Hostile::kNegative: {
      const std::string digits = Digits(rng, 1, 20);
      const std::string exponent = std::to_string(rng.UniformInt(1, 30));
      const std::string choices[] = {"-" + digits, "-0", "-0.5", "-1e" + exponent};
      return choices[rng.UniformInt(0, 3)];
    }
    case Hostile::kOverflow: {
      // At and past the edges: 2^64, the 32- and 16-bit fields, INT64_MAX
      // microseconds (as seconds and as milliseconds), and the double range;
      // random digit strings straddle all of them.
      const std::string choices[] = {Digits(rng, 1, 40),
                                     "18446744073709551615", "18446744073709551616",
                                     "4294967295", "4294967296", "65535", "65536",
                                     "9223372036854", "9223372036855",
                                     "9223372036854775", "9223372036854776",
                                     "9223372036854.775", "1.7976931348623157e308",
                                     "1e" + std::to_string(rng.UniformInt(19, 400))};
      return choices[rng.UniformInt(0, 13)];
    }
    case Hostile::kNonFinite: {
      const char* choices[] = {"nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999"};
      return choices[rng.UniformInt(0, 6)];
    }
    case Hostile::kEmpty:
      return "";
    case Hostile::kUnknownEnum:
      return "no-such-name-" + std::to_string(rng.UniformInt(0, 99));
    case Hostile::kTrailingGarbage: {
      const std::string choices[] = {"12abc", "1.5x", "true!", Digits(rng, 1, 5) + "x"};
      return choices[rng.UniformInt(0, 3)];
    }
    case Hostile::kNoKey:
      return Digits(rng, 1, 3);
  }
  return "";
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return lines;
}

/// The key of a `key = value` line, or "" for comments and blank lines.
std::string KeyOf(const std::string& line) {
  if (line.empty() || line[0] == '#') return "";
  return line.substr(0, line.find(" = "));
}

::testing::AssertionResult FailedWithMessage(const Status& status) {
  if (status.message().empty()) {
    return ::testing::AssertionFailure() << "rejected without a message";
  }
  return ::testing::AssertionSuccess();
}

/// An accepted config formats to a document that parses back to the same
/// formatting.
::testing::AssertionResult RoundTrips(const ExperimentConfig& config) {
  const std::string formatted = FormatConfig(config);
  auto reparsed = ParseConfig(formatted);
  if (!reparsed.ok()) {
    return ::testing::AssertionFailure()
           << "accepted, but its formatting is rejected: "
           << reparsed.status().ToString();
  }
  const std::string reformatted = FormatConfig(reparsed.ValueOrDie());
  if (reformatted != formatted) {
    return ::testing::AssertionFailure() << "round trip differs:\n"
                                         << formatted << "\nvs\n"
                                         << reformatted;
  }
  return ::testing::AssertionSuccess();
}

/// A parse either fails with a message or round-trips exactly.
::testing::AssertionResult StatusOrRoundTrip(const std::string& text) {
  auto parsed = ParseConfig(text);
  return parsed.ok() ? RoundTrips(parsed.ValueOrDie())
                     : FailedWithMessage(parsed.status());
}

/// The same for one key set through SetConfigValue.
::testing::AssertionResult SetStatusOrRoundTrip(ExperimentConfig config,
                                                const std::string& key,
                                                const std::string& value) {
  const Status st = SetConfigValue(&config, key, value);
  return st.ok() ? RoundTrips(config) : FailedWithMessage(st);
}

class ConfigFuzzTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ConfigFuzzTest, HostileValuesFailOrRoundTrip) {
  const ExperimentConfig base = MakePaperConfig(GetParam());
  const std::vector<std::string> lines = Lines(FormatConfig(base));
  Rng rng(0xF022 + static_cast<uint64_t>(GetParam()));
  size_t cases = 0;
  // Every key of the table (params.selection and trace_path too, which a
  // default config omits) meets every class three times, with fresh draws.
  for (int round = 0; round < 3; ++round) {
    for (std::string_view table_key : ConfigKeys()) {
      for (Hostile kind : kAllHostile) {
        const std::string key = kind == Hostile::kNoKey ? "" : std::string(table_key);
        const std::string value = HostileValue(kind, rng);
        const std::string line = key + (key.empty() ? "= " : " = ") + value;
        // The document with the key's line replaced, or appended when the
        // default omits the key.
        std::string text;
        bool replaced = false;
        for (const std::string& l : lines) {
          const bool match = KeyOf(l) == table_key;
          text += (match ? line : l) + "\n";
          replaced |= match;
        }
        if (!replaced) text += line + "\n";
        EXPECT_TRUE(StatusOrRoundTrip(text)) << "document line: " << line;
        // The --set path: the key set on the config directly.
        EXPECT_TRUE(SetStatusOrRoundTrip(base, key, value)) << "--set " << line;
        cases += 2;
      }
    }
  }
  EXPECT_GT(cases, 1000u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ConfigFuzzTest,
                         ::testing::ValuesIn(AllProtocolKinds()),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           std::string name = ProtocolKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace locaware::core
