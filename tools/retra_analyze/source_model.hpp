// Repo-wide source model of retra_analyze: the filesystem walk,
// include-edge extraction, module classification, and the
// suppression-directive check.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace retra::analyze {

/// One loaded source file.  `path` is repo-relative with forward
/// slashes (e.g. "src/net/src/server.cpp") so analyses can classify by
/// prefix.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Recursively collects the .hpp/.cpp files under the directory `root`,
/// skipping build output and VCS directories.
void collect_files(const std::filesystem::path& root,
                   std::vector<std::filesystem::path>& out);

/// Whole-file read (binary, no transformation).
std::string read_file(const std::filesystem::path& path);

/// Splits on '\n' (no newline translation; final unterminated line kept).
std::vector<std::string> split_lines(std::string_view content);

/// True when `lines[line-1]` or the line above carries
/// `retra-analyze: allow(rule)`.
bool analyze_allowed(const std::vector<std::string>& lines, int line,
                     std::string_view rule);

/// One `#include` directive.
struct IncludeEdge {
  std::string target;  // e.g. "retra/net/server.hpp" or "vector"
  int line = 0;
  bool angled = false;  // <...> vs "..."
};

/// Every #include of the file, in order.
std::vector<IncludeEdge> includes_of(std::string_view content);

/// Module of a repo-relative path: "support", "net", ... for files
/// under src/<module>/; "tools", "tests", "bench", "examples" for the
/// top layer; "" when unclassifiable.
std::string module_of_path(std::string_view repo_rel_path);

/// Module of an include target: "retra/net/server.hpp" -> "net";
/// "" for non-retra targets.
std::string module_of_include(std::string_view target);

}  // namespace retra::analyze
