#include "source_model.hpp"

#include <fstream>
#include <sstream>

namespace retra::analyze {

namespace {

bool skipped_dir(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  // "scratch" directories are out-of-core spill space (--scratch-dir):
  // RTRADB level files and drain-queue runs, never source.
  const bool scratch =
      name == "scratch" || name.rfind("retra_scratch", 0) == 0 ||
      (name.size() > 8 &&
       name.compare(name.size() - 8, 8, "_scratch") == 0);
  return name == "build" || name == ".git" ||
         name.rfind("cmake-build", 0) == 0 || scratch;
}

bool analyzable_file(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

}  // namespace

void collect_files(const std::filesystem::path& root,
                   std::vector<std::filesystem::path>& out) {
  std::filesystem::recursive_directory_iterator it(root), end;
  for (; it != end; ++it) {
    if (it->is_directory() && skipped_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && analyzable_file(it->path())) {
      out.push_back(it->path());
    }
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(std::string_view content) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin <= content.size()) {
    const std::size_t end = content.find('\n', begin);
    if (end == std::string_view::npos) {
      lines.emplace_back(content.substr(begin));
      break;
    }
    lines.emplace_back(content.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

bool analyze_allowed(const std::vector<std::string>& lines, int line,
                     std::string_view rule) {
  const std::string needle =
      "retra-analyze: allow(" + std::string(rule) + ")";
  for (int probe = line - 1; probe >= line - 2 && probe >= 0; --probe) {
    if (static_cast<std::size_t>(probe) >= lines.size()) continue;
    if (lines[static_cast<std::size_t>(probe)].find(needle) !=
        std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<IncludeEdge> includes_of(std::string_view content) {
  std::vector<IncludeEdge> edges;
  const std::vector<std::string> lines = split_lines(content);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& raw = lines[i];
    std::size_t pos = raw.find_first_not_of(" \t");
    if (pos == std::string::npos || raw[pos] != '#') continue;
    pos = raw.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos || raw.compare(pos, 7, "include") != 0) {
      continue;
    }
    pos = raw.find_first_not_of(" \t", pos + 7);
    if (pos == std::string::npos) continue;
    const char open = raw[pos];
    if (open != '"' && open != '<') continue;
    const char close = open == '"' ? '"' : '>';
    const std::size_t end = raw.find(close, pos + 1);
    if (end == std::string::npos) continue;
    IncludeEdge edge;
    edge.target = raw.substr(pos + 1, end - pos - 1);
    edge.line = static_cast<int>(i) + 1;
    edge.angled = open == '<';
    edges.push_back(std::move(edge));
  }
  return edges;
}

std::string module_of_path(std::string_view repo_rel_path) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin < repo_rel_path.size()) {
    const std::size_t end = repo_rel_path.find('/', begin);
    if (end == std::string_view::npos) {
      parts.push_back(repo_rel_path.substr(begin));
      break;
    }
    parts.push_back(repo_rel_path.substr(begin, end - begin));
    begin = end + 1;
  }
  if (parts.empty()) return {};
  if (parts[0] == "src") {
    return parts.size() > 1 ? std::string(parts[1]) : std::string{};
  }
  if (parts[0] == "tools" || parts[0] == "tests" || parts[0] == "bench" ||
      parts[0] == "examples") {
    return std::string(parts[0]);
  }
  return {};
}

std::string module_of_include(std::string_view target) {
  constexpr std::string_view kPrefix = "retra/";
  if (target.rfind(kPrefix, 0) != 0) return {};
  const std::string_view rest = target.substr(kPrefix.size());
  const std::size_t slash = rest.find('/');
  return std::string(slash == std::string_view::npos ? rest
                                                     : rest.substr(0, slash));
}

}  // namespace retra::analyze
