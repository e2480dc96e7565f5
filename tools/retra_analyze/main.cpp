// retra_analyze — static analysis for the retra codebase.
//
//   retra_analyze <repo-root>
//
// Walks src/, tools/, tests/, bench/ and examples/ under the repo root,
// loads docs/PROTOCOL.md, docs/METRICS.md and docs/FORMAT.md, and runs
// every analysis (analyze_all).  Findings print as
//
//   <file>:<line>: [<rule>] <message>
//
// Exit status: 0 clean, 1 findings, 2 usage error.  See
// docs/ANALYSIS.md for the rules and the suppression syntax.

#include <cstdio>
#include <filesystem>
#include <vector>

#include "analysis.hpp"

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using namespace retra::analyze;
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr, "usage: retra_analyze <repo-root>\n");
    return 2;
  }
  const fs::path root(argv[1]);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "retra_analyze: not a directory: %s\n", argv[1]);
    return 2;
  }

  const AnalysisInput input = load_repo(root);
  const std::vector<Finding> findings = analyze_all(input);
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("retra_analyze: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::printf("retra_analyze: %zu files analyzed, clean\n",
              input.files.size());
  return 0;
}
