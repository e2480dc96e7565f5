#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "retra/db/db_io.hpp"

namespace retra::e2e {

std::uint64_t level_digest(const db::Database& database, int level) {
  const std::vector<db::Value>& values = database.level(level);
  return db::fnv1a(values.data(), values.size() * sizeof(db::Value));
}

bool check_pinned(const db::Database& database, int top,
                  const std::string& what, Result& result) {
  constexpr int kPinned =
      static_cast<int>(std::size(kPinnedLevelDigests));
  if (top >= kPinned) {
    result.fail(what + ": no pinned digest above level " +
                std::to_string(kPinned - 1));
    return false;
  }
  if (database.num_levels() != top + 1) {
    result.fail(what + ": holds " + std::to_string(database.num_levels()) +
                " levels, expected 0.." + std::to_string(top));
    return false;
  }
  for (int level = 0; level < database.num_levels(); ++level) {
    if (level_digest(database, level) !=
        kPinnedLevelDigests[static_cast<std::size_t>(level)]) {
      result.fail(what + ": level " + std::to_string(level) +
                  " differs from the sequential solver's digest");
      return false;
    }
  }
  return true;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[rank == 0 ? 0 : std::min(rank, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

TempDir::TempDir(const std::string& root) {
  std::filesystem::create_directories(root);
  std::string pattern =
      (std::filesystem::path(root) / "run-XXXXXX").string();
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create a temporary directory in " +
                             root);
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

bool directory_empty(const std::string& path) {
  std::error_code error;
  return std::filesystem::is_directory(path, error) &&
         std::filesystem::is_empty(path, error) && !error;
}

}  // namespace retra::e2e
