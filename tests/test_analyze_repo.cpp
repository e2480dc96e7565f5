// Live-repo self-test: retra_analyze must run clean over this checkout.
// Any per-file rule violation, annotation gap, layering violation, or
// spec doc drift introduced by a change fails here, with the same file:line message the
// CLI prints.  RETRA_REPO_ROOT is injected by tests/CMakeLists.txt.
#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "analysis.hpp"

namespace retra::analyze {
namespace {

TEST(AnalyzeRepo, WholeTreeIsClean) {
  const std::filesystem::path root(RETRA_REPO_ROOT);
  ASSERT_TRUE(std::filesystem::is_directory(root / "src"))
      << "repo root not found at " << root;
  const AnalysisInput input = load_repo(root);
  ASSERT_GT(input.files.size(), 100u) << "walk found too few files";
  ASSERT_FALSE(input.protocol_doc.empty());
  ASSERT_FALSE(input.metrics_doc.empty());
  ASSERT_FALSE(input.format_doc.empty());

  std::string report;
  const auto findings = analyze_all(input);
  for (const Finding& f : findings) {
    report += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
              f.message + "\n";
  }
  EXPECT_TRUE(findings.empty()) << report;
}

// analyze_all runs the per-file rules: one raw allocation appended to a
// loaded src/ file is exactly one new finding, on that file and line.
TEST(AnalyzeRepo, AnalyzeAllRunsThePerFileRules) {
  AnalysisInput input = load_repo(RETRA_REPO_ROOT);
  const std::vector<Finding> before = analyze_all(input);
  const auto target =
      std::find_if(input.files.begin(), input.files.end(), [](const auto& f) {
        return f.path.rfind("src/", 0) == 0 &&
               f.path.size() > 4 &&
               f.path.compare(f.path.size() - 4, 4, ".cpp") == 0;
      });
  ASSERT_NE(target, input.files.end());
  std::string& content = target->content;
  if (!content.empty() && content.back() != '\n') content += '\n';
  content += "int* p = new int(1);\n";
  const int line =
      static_cast<int>(std::count(content.begin(), content.end(), '\n'));

  const std::vector<Finding> after = analyze_all(input);
  ASSERT_EQ(after.size(), before.size() + 1);
  const auto added =
      std::find_if(after.begin(), after.end(), [&](const Finding& f) {
        return f.file == target->path && f.line == line;
      });
  ASSERT_NE(added, after.end());
  EXPECT_EQ(added->rule, "raw-alloc") << added->message;
}

// The annotated source tree must contain real annotation usage — this
// guards against the coverage rule silently matching nothing (e.g. a
// tokenizer regression that stops recognising class bodies).
TEST(AnalyzeRepo, AnnotationsArePresentInTree) {
  const AnalysisInput input = load_repo(RETRA_REPO_ROOT);
  int guarded = 0, io_marked = 0, mutex_members = 0;
  for (const SourceFile& f : input.files) {
    if (f.path.rfind("src/", 0) != 0) continue;
    for (std::size_t pos = f.content.find("RETRA_GUARDED_BY");
         pos != std::string::npos;
         pos = f.content.find("RETRA_GUARDED_BY", pos + 1)) {
      ++guarded;
    }
    for (std::size_t pos = f.content.find("RETRA_IO_THREAD_ONLY");
         pos != std::string::npos;
         pos = f.content.find("RETRA_IO_THREAD_ONLY", pos + 1)) {
      ++io_marked;
    }
    for (std::size_t pos = f.content.find("support::Mutex");
         pos != std::string::npos;
         pos = f.content.find("support::Mutex", pos + 1)) {
      ++mutex_members;
    }
  }
  EXPECT_GE(guarded, 10) << "mutex-adjacent members lost their annotations";
  EXPECT_GE(io_marked, 5) << "I/O-thread markers disappeared";
  EXPECT_GE(mutex_members, 4) << "annotated Mutex usage disappeared";
}

}  // namespace
}  // namespace retra::analyze
