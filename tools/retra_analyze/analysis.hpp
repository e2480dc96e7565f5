// The analyses (see docs/ANALYSIS.md for the rule table).
//
// Each analysis is a pure function over an AnalysisInput — loaded
// sources plus the spec documents — returning findings.  A
// `// retra-analyze: allow(<rule>)` comment on the finding's line or the
// line above suppresses it.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "source_model.hpp"

namespace retra::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct AnalysisInput {
  std::vector<SourceFile> files;
  std::string protocol_doc;  // docs/PROTOCOL.md contents
  std::string metrics_doc;   // docs/METRICS.md contents
  std::string format_doc;    // docs/FORMAT.md contents
};

/// Lock discipline: annotation coverage of mutex-holding classes plus
/// the blocking-call check for I/O-thread-only functions.
std::vector<Finding> analyze_locks(const AnalysisInput& input);

/// Layering DAG over retra/... includes: module order + include cycles.
std::vector<Finding> analyze_layering(const AnalysisInput& input);

/// Spec consistency: protocol.hpp vs PROTOCOL.md, obs catalog vs
/// METRICS.md, db/format.hpp vs FORMAT.md.
std::vector<Finding> analyze_spec(const AnalysisInput& input);

/// Per-file rules: pragma-once, include-hygiene, determinism,
/// raw-alloc, wire-format, db-level-residency, simd-containment.
std::vector<Finding> analyze_files(const AnalysisInput& input);

/// All analyses, findings ordered by (file, line).
std::vector<Finding> analyze_all(const AnalysisInput& input);

/// Loads a repository checkout: every analyzable file under src/,
/// tools/, tests/, bench/ and examples/ (paths made repo-relative) plus
/// the three spec documents.  Shared by the CLI and the self-test.
AnalysisInput load_repo(const std::filesystem::path& root);

}  // namespace retra::analyze
