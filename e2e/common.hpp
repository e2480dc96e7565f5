// Shared pieces of the end-to-end benchmark: run options, the result a
// workload returns, the pinned database digests, and small statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "retra/db/database.hpp"

namespace retra::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Chrome trace output; non-empty selects the traced run, which
  /// reports the per-layer metrics instead of the end-to-end ones.
  std::string trace_path;
  /// Parent of the run's private temporary directory.
  std::string tmp_root;
  /// Toy sizes (level 8) for the self-test.
  bool smoke = false;
  /// now_ns() at entry to main(): where set-up time starts.
  std::uint64_t process_start_ns = 0;

  bool traced() const { return !trace_path.empty(); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Printed beside the value on the human-readable line only.
  std::string note;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed on the human-readable lines, never in the JSON object.
  std::vector<Metric> extra;
  std::vector<std::string> notes;
  /// Why `correct` is false.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  void fail(std::string error) {
    correct = false;
    errors.push_back(std::move(error));
  }
};

class Reference;

Result run_build_workload(const Options& options, Reference& reference);
Result run_serve_workload(const Options& options, Reference& reference);

/// FNV-1a 64 (db::fnv1a) of every awari level's int16 values as
/// ra::build_database produces them; levels 0..14.
inline constexpr std::uint64_t kPinnedLevelDigests[] = {
    0x08328807b4eb6fedULL,  // level 0, 1 position
    0x40ca2e396417afc6ULL,  // level 1, 12 positions
    0xe8d7af0acb3fc5daULL,  // level 2, 78 positions
    0xe3b395d91eec2142ULL,  // level 3, 364 positions
    0x85140c76ac31247eULL,  // level 4, 1365 positions
    0xa7d763595ae01ce1ULL,  // level 5, 4368 positions
    0xe34ba670451376dcULL,  // level 6, 12376 positions
    0x51f4ffc18ca2dde6ULL,  // level 7, 31824 positions
    0x8a9221d9f11eee6aULL,  // level 8, 75582 positions
    0xe4b3a24aab0aabb3ULL,  // level 9, 167960 positions
    0x9592c44574c9f3a4ULL,  // level 10, 352716 positions
    0x44f213dc16415596ULL,  // level 11, 705432 positions
    0xaed0307ca1ae75b8ULL,  // level 12, 1352078 positions
    0x0b4bb0f5bea661a6ULL,  // level 13, 2496144 positions
    0xa1ef6aa3dc3badc5ULL,  // level 14, 4457400 positions
};

/// Digest of one level of `database`.
std::uint64_t level_digest(const db::Database& database, int level);

/// Checks that `database` holds exactly levels 0..top and that each
/// matches its pin; on a mismatch records it in `result` under `what` and
/// returns false.
bool check_pinned(const db::Database& database, int top,
                  const std::string& what, Result& result);

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
double percentile(std::vector<double>& values, double q);

/// Median of `values`; sorts in place.
inline double median(std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// getrusage(RUSAGE_SELF).ru_maxrss in MB.
double peak_rss_mb();

/// A private directory under `root`, removed with its contents on
/// destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& root);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// True when `path` is an existing directory with no entries.
bool directory_empty(const std::string& path);

}  // namespace retra::e2e
