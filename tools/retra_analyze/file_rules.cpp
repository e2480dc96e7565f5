// Per-file rules: pragma-once, include-hygiene, determinism, raw-alloc,
// wire-format, db-level-residency and simd-containment.
//
// Each rule reads one file alone.  Scoping keys off the module of the
// repo-relative path (module_of_path), never a path substring, so a
// checkout under some other directory named `src` classifies the same.
// The identifier rules read tokenize() output; the line-structured
// rules (pragma-once, wire-format, db-level-residency) read the
// strip_to_code() text line by line.

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis.hpp"
#include "tokenizer.hpp"

namespace retra::analyze {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

// Wall clocks and unseeded/global RNGs make solver and protocol runs
// irreproducible (and untestable under the discrete-event simulator,
// which owns the only clock).
constexpr std::array<std::string_view, 9> kNondeterministic = {
    "rand",          "srand",
    "random_device", "mt19937",
    "system_clock",  "steady_clock",
    "high_resolution_clock", "gettimeofday",
    "clock_gettime",
};

// Modules whose runs checkpoint resume, fault replay and the DES replay.
constexpr std::array<std::string_view, 4> kSolverModules = {
    "ra", "para", "msg", "sim"};

constexpr std::array<std::string_view, 9> kFixedWidth = {
    "std::uint8_t",  "std::uint16_t", "std::uint32_t",
    "std::uint64_t", "std::int8_t",   "std::int16_t",
    "std::int32_t",  "std::int64_t",  "std::byte",
};

template <std::size_t N>
bool one_of(const std::array<std::string_view, N>& set,
            std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

bool is_intrinsic(std::string_view ident) {
  return starts_with(ident, "_mm") || starts_with(ident, "__m128") ||
         starts_with(ident, "__m256") || starts_with(ident, "__m512") ||
         starts_with(ident, "__builtin_ia32");
}

bool is_intrinsics_header(std::string_view target) {
  return (target.size() > 8 && ends_with(target, "intrin.h")) ||
         target == "arm_neon.h";
}

class FileRules {
 public:
  FileRules(const SourceFile& file, std::vector<Finding>& findings)
      : file_(file),
        module_(module_of_path(file.path)),
        in_src_(file.path.rfind("src/", 0) == 0),
        raw_lines_(split_lines(file.content)),
        stripped_(strip_to_code(file.content)),
        lines_(split_lines(stripped_)),
        toks_(tokenize(file.content)),
        findings_(findings) {}

  void run() {
    if (ends_with(file_.path, ".hpp")) check_pragma_once();
    check_includes();
    check_identifiers();
    if (module_ == "para") check_db_level_access();
    check_wire_structs();
  }

 private:
  void add(int line, const char* rule, std::string message) {
    if (analyze_allowed(raw_lines_, line, rule)) return;
    findings_.push_back({file_.path, line, rule, std::move(message)});
  }

  void check_pragma_once() {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string_view line = trim(lines_[i]);
      if (line.empty()) continue;
      if (line == "#pragma once") return;
      // The guard must precede any other preprocessor/code line.
      add(static_cast<int>(i) + 1, "pragma-once",
          "header must start with #pragma once");
      return;
    }
    add(1, "pragma-once", "header must start with #pragma once");
  }

  // include-hygiene, plus the intrinsics-header half of
  // simd-containment.
  void check_includes() {
    for (const IncludeEdge& inc : includes_of(file_.content)) {
      if (inc.target.find("..") != std::string::npos) {
        add(inc.line, "include-hygiene",
            "include path must not contain '..'");
      }
      if (starts_with(inc.target, "bits/")) {
        add(inc.line, "include-hygiene",
            "<bits/...> is a libstdc++ internal; include the standard "
            "header instead");
      }
      if (!inc.angled && in_src_ && !starts_with(inc.target, "retra/")) {
        add(inc.line, "include-hygiene",
            "project includes under src/ must use the full "
            "\"retra/...\" path");
      }
      if (module_ != "exec" && is_intrinsics_header(inc.target)) {
        add(inc.line, "simd-containment",
            "intrinsics header <" + inc.target +
                "> outside src/exec; use the exec::simd kernels");
      }
    }
  }

  // determinism, raw-alloc, and the intrinsic-name half of
  // simd-containment.  Raw vector intrinsics are confined to src/exec,
  // where exec::simd wraps them behind the bit-identical kernel contract
  // with a scalar fallback; anywhere else they couple the code to one
  // ISA and bypass the RETRA_SIMD=OFF build.
  void check_identifiers() {
    const bool solver = one_of(kSolverModules, module_);
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& tok = toks_[i];
      if (tok.kind != TokKind::kIdent) continue;
      if (solver && one_of(kNondeterministic, tok.text)) {
        add(tok.line, "determinism",
            "'" + tok.text +
                "' is nondeterministic; use the seeded "
                "support::Xoshiro256 / virtual time instead");
      }
      if (in_src_ && (tok.text == "new" || tok.text == "delete") &&
          !declares_allocation(i)) {
        add(tok.line, "raw-alloc",
            "raw '" + tok.text +
                "' under src/; use containers or std::make_unique");
      }
      if (module_ != "exec" && is_intrinsic(tok.text)) {
        add(tok.line, "simd-containment",
            "raw intrinsic '" + tok.text +
                "' outside src/exec; use the exec::simd kernels");
      }
    }
  }

  // `= delete` (deleted member) and `operator new/delete` (allocator
  // definitions) are declarations, not allocations.
  bool declares_allocation(std::size_t i) const {
    if (i == 0) return false;
    const Token& prev = toks_[i - 1];
    if (prev.kind == TokKind::kIdent) return prev.text == "operator";
    return toks_[i].text == "delete" && prev.kind == TokKind::kPunct &&
           prev.text == "=";
  }

  void check_db_level_access() {
    // Engine code must go through para::LevelStore for completed-level
    // values: a direct db::Database::level() call hands out the dense
    // vector, bypassing the working-set budget (and the file-backed
    // store has no such vector at all).  Heuristic: a `.level(` /
    // `->level(` call whose receiver identifier names a database
    // (contains "db" or "database"), or a qualified `Database::level`.
    const auto names_database = [](std::string_view ident) {
      std::string lower(ident);
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      return lower.find("db") != std::string::npos ||
             lower.find("database") != std::string::npos;
    };
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string_view line = lines_[i];
      const int lineno = static_cast<int>(i) + 1;
      if (line.find("Database::level") != std::string_view::npos) {
        add(lineno, "db-level-residency",
            "engine code must not use db::Database::level(); read values "
            "through para::LevelStore");
        continue;
      }
      for (std::size_t at = line.find("level(");
           at != std::string_view::npos; at = line.find("level(", at + 1)) {
        // Receiver: the identifier before the `.` or `->` that precedes
        // this call.
        std::size_t before = at;
        if (before >= 1 && line[before - 1] == '.') {
          before -= 1;
        } else if (before >= 2 && line[before - 2] == '-' &&
                   line[before - 1] == '>') {
          before -= 2;
        } else {
          continue;  // free function or method definition, not a call
        }
        std::size_t begin = before;
        while (begin > 0 && is_ident_char(line[begin - 1])) --begin;
        if (begin == before) continue;  // e.g. `(*x).level(` — skip
        if (!names_database(line.substr(begin, before - begin))) continue;
        add(lineno, "db-level-residency",
            "engine code must not call level() on a database; read "
            "values through para::LevelStore");
      }
    }
  }

  void check_wire_structs() {
    // A struct declaring `kWireSize` is a wire record: it must be
    // statically asserted trivially copyable and use only fixed-width
    // field types, so encode/decode and checksums see a stable layout.
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string_view line = trim(lines_[i]);
      if (!starts_with(line, "struct ")) continue;
      const std::string_view rest = trim(line.substr(7));
      std::size_t name_end = 0;
      while (name_end < rest.size() && is_ident_char(rest[name_end])) {
        ++name_end;
      }
      if (name_end == 0) continue;
      const std::string name(rest.substr(0, name_end));
      if (rest.find('{') == std::string_view::npos) continue;  // fwd decl

      // Body: to the matching close brace (brace counting on stripped
      // text, so braces in literals/comments cannot confuse it).
      int depth = 0;
      std::size_t body_end = i;
      for (std::size_t j = i; j < lines_.size(); ++j) {
        for (const char c : lines_[j]) {
          if (c == '{') ++depth;
          if (c == '}') --depth;
        }
        body_end = j;
        if (depth <= 0 && j > i) break;
      }

      const int first = static_cast<int>(i) + 1;
      const int last = static_cast<int>(body_end) + 1;
      const bool is_wire =
          std::any_of(toks_.begin(), toks_.end(), [&](const Token& t) {
            return t.line >= first && t.line <= last &&
                   t.kind == TokKind::kIdent && t.text == "kWireSize";
          });
      if (!is_wire) continue;

      if (stripped_.find("is_trivially_copyable_v<" + name + ">") ==
          std::string::npos) {
        add(first, "wire-format",
            "wire struct " + name +
                " needs static_assert(std::is_trivially_copyable_v<" +
                name + ">)");
      }

      int member_depth = 0;  // brace depth at the start of each line
      for (const char c : lines_[i]) {
        if (c == '{') ++member_depth;
        if (c == '}') --member_depth;
      }
      for (std::size_t j = i + 1; j < body_end; ++j) {
        const int depth_at_start = member_depth;
        for (const char c : lines_[j]) {
          if (c == '{') ++member_depth;
          if (c == '}') --member_depth;
        }
        // Members live at depth 1; deeper lines are inside the bodies of
        // encode/decode or nested types.
        if (depth_at_start != 1) continue;
        const std::string_view decl = trim(lines_[j]);
        if (decl.empty() || decl.back() != ';') continue;
        if (decl.find('(') != std::string_view::npos) continue;
        if (starts_with(decl, "static") || starts_with(decl, "using") ||
            starts_with(decl, "return") || starts_with(decl, "}")) {
          continue;
        }
        // `Type name = init;` or `Type name;` — a data member.
        const std::size_t space = decl.find(' ');
        if (space == std::string_view::npos) continue;
        if (!one_of(kFixedWidth, decl.substr(0, space))) {
          add(static_cast<int>(j) + 1, "wire-format",
              "wire struct " + name + " field '" + std::string(decl) +
                  "' must use a fixed-width type");
        }
      }
    }
  }

  const SourceFile& file_;
  const std::string module_;
  const bool in_src_;
  const std::vector<std::string> raw_lines_;
  const std::string stripped_;
  const std::vector<std::string> lines_;
  const std::vector<Token> toks_;
  std::vector<Finding>& findings_;
};

}  // namespace

std::vector<Finding> analyze_files(const AnalysisInput& input) {
  std::vector<Finding> findings;
  for (const SourceFile& file : input.files) FileRules(file, findings).run();
  return findings;
}

}  // namespace retra::analyze
