// Text serialization of ExperimentConfig (simple `key = value` files) and
// JSON export of ExperimentResult. This is what makes runs shareable: a
// config file plus a seed reproduces a run bit-for-bit, and the JSON result
// feeds external plotting. One table in config_io.cc is the only place a
// config key is named, with its section and the field it reads and writes:
// adding a key means adding one row.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "core/experiment_config.h"

namespace locaware::core {

/// Renders a config as a `key = value` text document grouped with comments:
/// every key but an empty trace_path and an unset params.selection.
std::string FormatConfig(const ExperimentConfig& config);

/// Parses FormatConfig output, or a hand-written subset (unspecified fields
/// keep their defaults; `#` starts a comment). Unknown keys and malformed
/// values fail with InvalidArgument naming the line and the key.
Result<ExperimentConfig> ParseConfig(const std::string& text);

/// Applies one `key = value` line, both sides trimmed: the entry point of
/// ParseConfig, --set and every flag that names a config field.
Status SetConfigValue(ExperimentConfig* config, std::string_view key,
                      std::string_view value);

/// Every config key, in FormatConfig order.
std::vector<std::string_view> ConfigKeys();

/// The parser of integer keys and count flags: digits only, at most 2^64 - 1.
Result<uint64_t> ParseUnsigned(std::string_view name, std::string_view text);

/// File wrappers. SaveConfig fails with InvalidArgument naming the key when
/// a value holds '#', CR or LF, which would not load back as itself.
Status SaveConfig(const ExperimentConfig& config, const std::string& path);
Result<ExperimentConfig> LoadConfig(const std::string& path);

/// Serializes an ExperimentResult (summary + series) as a JSON document.
std::string ResultToJson(const ExperimentResult& result);

}  // namespace locaware::core
