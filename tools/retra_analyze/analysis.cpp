#include <algorithm>
#include <filesystem>

#include "analysis.hpp"

namespace retra::analyze {

std::vector<Finding> analyze_all(const AnalysisInput& input) {
  std::vector<Finding> findings = analyze_locks(input);
  for (auto* more : {analyze_layering, analyze_spec, analyze_files}) {
    std::vector<Finding> extra = more(input);
    findings.insert(findings.end(), std::make_move_iterator(extra.begin()),
                    std::make_move_iterator(extra.end()));
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

AnalysisInput load_repo(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  AnalysisInput input;
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    const fs::path sub = root / dir;
    if (fs::is_directory(sub)) collect_files(sub, paths);
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    input.files.push_back(
        {fs::relative(path, root).generic_string(), read_file(path)});
  }
  const fs::path protocol_doc = root / "docs" / "PROTOCOL.md";
  const fs::path metrics_doc = root / "docs" / "METRICS.md";
  const fs::path format_doc = root / "docs" / "FORMAT.md";
  if (fs::is_regular_file(protocol_doc)) {
    input.protocol_doc = read_file(protocol_doc);
  }
  if (fs::is_regular_file(metrics_doc)) {
    input.metrics_doc = read_file(metrics_doc);
  }
  if (fs::is_regular_file(format_doc)) {
    input.format_doc = read_file(format_doc);
  }
  return input;
}

}  // namespace retra::analyze
