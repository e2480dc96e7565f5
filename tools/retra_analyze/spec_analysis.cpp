// Spec-consistency analysis (rules protocol-doc, metrics-doc and
// format-doc).
//
// Parses the machine side of each contract from tokens — the protocol
// constants/enums/StatsReply in net/protocol.hpp, the metric catalog in
// obs/metrics.hpp and the on-disk format constants in db/format.hpp —
// and the human side from the markdown tables in docs/PROTOCOL.md,
// docs/METRICS.md and docs/FORMAT.md, then diffs the two.  Prose is
// never compared; only names, numbers, kinds, units, components and
// paper-table tags.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis.hpp"
#include "tokenizer.hpp"

namespace retra::analyze {

namespace {

bool ident_is(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool punct_is(const Token& t, char c) {
  return t.kind == TokKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}

// ---- numeric helpers ----------------------------------------------

// "0x314E5452u" / "1'000ull" / "20" -> value.  Returns false on
// non-numeric text.
bool parse_number(const std::string& text, std::uint64_t& out) {
  std::string digits;
  for (char c : text) {
    if (c == '\'') continue;
    digits.push_back(c);
  }
  while (!digits.empty()) {
    const char c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(digits.back())));
    if (c == 'u' || c == 'l' || c == 'z') {
      digits.pop_back();
      continue;
    }
    break;
  }
  if (digits.empty()) return false;
  try {
    std::size_t used = 0;
    out = std::stoull(digits, &used, 0);
    return used == digits.size();
  } catch (...) {
    return false;
  }
}

// Evaluates the initializer expression `= ... ;` starting after the
// '=': numbers combined with `+` and `<<` (the only operators the
// protocol constants use).  Returns false on anything else.
bool eval_initializer(const std::vector<Token>& toks, std::size_t i,
                      std::uint64_t& out) {
  bool have = false;
  std::uint64_t acc = 0;
  char pending = '+';
  while (i < toks.size() && !punct_is(toks[i], ';') &&
         !punct_is(toks[i], ',') && !punct_is(toks[i], '}')) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kNumber) {
      std::uint64_t v = 0;
      if (!parse_number(t.text, v)) return false;
      if (pending == '+') {
        acc += v;
      } else if (pending == '<') {
        acc <<= v;
      }
      have = true;
      ++i;
      continue;
    }
    if (punct_is(t, '+')) {
      pending = '+';
      ++i;
      continue;
    }
    if (punct_is(t, '<') && i + 1 < toks.size() &&
        punct_is(toks[i + 1], '<')) {
      pending = '<';
      i += 2;
      continue;
    }
    return false;  // identifiers, casts — out of scope
  }
  out = acc;
  return have;
}

// Finds `name = <expr>` at any position and evaluates the expression.
bool find_constant(const std::vector<Token>& toks, const char* name,
                   std::uint64_t& out, int* line = nullptr) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!ident_is(toks[i], name)) continue;
    if (!punct_is(toks[i + 1], '=')) continue;
    if (i + 2 < toks.size() && punct_is(toks[i + 2], '=')) continue;  // ==
    if (eval_initializer(toks, i + 2, out)) {
      if (line != nullptr) *line = toks[i].line;
      return true;
    }
  }
  return false;
}

// ---- enum / struct extraction -------------------------------------

struct EnumEntry {
  std::string name;
  std::uint64_t value = 0;
  int line = 0;
};

std::vector<EnumEntry> parse_enum(const std::vector<Token>& toks,
                                  const char* enum_name) {
  std::vector<EnumEntry> entries;
  std::size_t i = 0;
  for (; i < toks.size(); ++i) {
    if (!ident_is(toks[i], "enum")) continue;
    std::size_t j = i + 1;
    if (j < toks.size() &&
        (ident_is(toks[j], "class") || ident_is(toks[j], "struct"))) {
      ++j;
    }
    if (j < toks.size() && ident_is(toks[j], enum_name)) {
      i = j;
      break;
    }
  }
  if (i >= toks.size()) return entries;
  while (i < toks.size() && !punct_is(toks[i], '{')) ++i;
  ++i;
  std::uint64_t next_value = 0;
  while (i < toks.size() && !punct_is(toks[i], '}')) {
    if (toks[i].kind != TokKind::kIdent) {
      ++i;
      continue;
    }
    EnumEntry e;
    e.name = toks[i].text;
    e.line = toks[i].line;
    ++i;
    if (i < toks.size() && punct_is(toks[i], '=')) {
      std::uint64_t v = 0;
      eval_initializer(toks, i + 1, v);
      e.value = v;
      while (i < toks.size() && !punct_is(toks[i], ',') &&
             !punct_is(toks[i], '}')) {
        ++i;
      }
    } else {
      e.value = next_value;
    }
    next_value = e.value + 1;
    entries.push_back(std::move(e));
    if (i < toks.size() && punct_is(toks[i], ',')) ++i;
  }
  return entries;
}

// The uint64 scalar members of struct StatsReply, in declaration order
// (static members and the level_sizes vector excluded).
std::vector<EnumEntry> parse_stats_members(const std::vector<Token>& toks) {
  std::vector<EnumEntry> members;
  std::size_t i = 0;
  for (; i + 1 < toks.size(); ++i) {
    if (ident_is(toks[i], "struct") && ident_is(toks[i + 1], "StatsReply")) {
      break;
    }
  }
  if (i + 1 >= toks.size()) return members;
  while (i < toks.size() && !punct_is(toks[i], '{')) ++i;
  int depth = 0;
  std::vector<const Token*> segment;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (punct_is(t, '{')) {
      if (++depth > 1) continue;
      continue;
    }
    if (punct_is(t, '}')) {
      if (--depth == 0) break;
      continue;
    }
    if (depth != 1) continue;
    if (punct_is(t, ';')) {
      bool is_static = false, is_u64 = false, is_vector = false;
      const Token* name = nullptr;
      bool past_eq = false;
      for (const Token* s : segment) {
        if (s->text == "static") is_static = true;
        if (s->text == "uint64_t") is_u64 = true;
        if (s->text == "vector") is_vector = true;
        if (s->kind == TokKind::kPunct && s->text == "=") past_eq = true;
        if (s->kind == TokKind::kIdent && !past_eq) name = s;
      }
      if (!is_static && is_u64 && !is_vector && name != nullptr) {
        members.push_back({name->text, 0, name->line});
      }
      segment.clear();
      continue;
    }
    segment.push_back(&t);
  }
  return members;
}

// ---- markdown table parsing ---------------------------------------

struct DocRow {
  std::vector<std::string> cells;
  int line = 0;
};

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::string strip_backticks(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != '`') out.push_back(c);
  }
  return out;
}

bool dashes_only(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c != '-' && c != ':' && c != ' ') return false;
  }
  return true;
}

// Data rows of every markdown table between the heading containing
// `section` and the next heading of equal-or-higher level.
std::vector<DocRow> table_rows(const std::vector<std::string>& lines,
                               const std::string& section) {
  std::vector<DocRow> rows;
  bool in_section = false;
  bool header_seen = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& raw = lines[i];
    if (raw.rfind("#", 0) == 0) {
      if (in_section) break;
      if (raw.find(section) != std::string::npos) in_section = true;
      continue;
    }
    if (!in_section) continue;
    const std::string t = trim(raw);
    if (t.empty() || t[0] != '|') {
      header_seen = false;
      continue;
    }
    std::vector<std::string> cells;
    std::size_t begin = 1;  // past leading '|'
    while (begin <= t.size()) {
      const std::size_t end = t.find('|', begin);
      if (end == std::string::npos) break;
      cells.push_back(trim(t.substr(begin, end - begin)));
      begin = end + 1;
    }
    if (cells.empty()) continue;
    if (!header_seen) {
      header_seen = true;  // first row of a table is its header
      continue;
    }
    if (dashes_only(cells[0])) continue;
    rows.push_back({std::move(cells), static_cast<int>(i) + 1});
  }
  return rows;
}

// kPing -> PING, kBatchQuery -> BATCH_QUERY
std::string upper_snake(const std::string& enum_name) {
  std::string out;
  for (std::size_t i = 1; i < enum_name.size(); ++i) {  // skip 'k'
    const char c = enum_name[i];
    if (std::isupper(static_cast<unsigned char>(c)) && !out.empty()) {
      out.push_back('_');
    }
    out.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}

// kBadMagic -> bad-magic
std::string kebab(const std::string& enum_name) {
  std::string out;
  for (std::size_t i = 1; i < enum_name.size(); ++i) {
    const char c = enum_name[i];
    if (std::isupper(static_cast<unsigned char>(c)) && !out.empty()) {
      out.push_back('-');
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

const SourceFile* find_file(const AnalysisInput& input,
                            const std::string& suffix) {
  for (const SourceFile& f : input.files) {
    if (f.path.size() >= suffix.size() &&
        f.path.compare(f.path.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      return &f;
    }
  }
  return nullptr;
}

void emit(std::vector<Finding>& findings,
          const std::vector<std::string>& lines, const std::string& file,
          int line, const char* rule, std::string message) {
  if (analyze_allowed(lines, line, rule)) return;
  findings.push_back({file, line, rule, std::move(message)});
}

// ---- protocol-doc -------------------------------------------------

void check_protocol(const AnalysisInput& input,
                    std::vector<Finding>& findings) {
  constexpr const char* kRule = "protocol-doc";
  constexpr const char* kDocPath = "docs/PROTOCOL.md";
  const SourceFile* hpp = find_file(input, "retra/net/protocol.hpp");
  if (hpp == nullptr) {
    findings.push_back({kDocPath, 1, kRule,
                        "net/protocol.hpp not found among analyzed files"});
    return;
  }
  if (input.protocol_doc.empty()) {
    findings.push_back(
        {hpp->path, 1, kRule, "docs/PROTOCOL.md is missing or empty"});
    return;
  }
  const std::vector<Token> toks = tokenize(hpp->content);
  const std::vector<std::string> hpp_lines = split_lines(hpp->content);
  const std::vector<std::string> doc_lines =
      split_lines(input.protocol_doc);

  // Headline constants, phrased exactly as the doc states them.
  std::uint64_t wire_size = 0, max_payload = 0, max_batch = 0, magic = 0;
  struct Phrase {
    bool found_const;
    std::string needle;
    const char* what;
    int line;
  };
  std::vector<Phrase> phrases;
  int line = 1;
  if (find_constant(toks, "kWireSize", wire_size, &line)) {
    phrases.push_back({true,
                       "fixed " + std::to_string(wire_size) + "-byte header",
                       "frame header size", line});
  }
  if (find_constant(toks, "kMaxPayloadBytes", max_payload, &line) &&
      max_payload % (1u << 20) == 0) {
    phrases.push_back({true,
                       std::to_string(max_payload >> 20) + " MiB",
                       "payload ceiling", line});
  }
  if (find_constant(toks, "kMaxBatchLookups", max_batch, &line)) {
    phrases.push_back({true, "**" + std::to_string(max_batch) + "**",
                       "batch-lookup ceiling", line});
  }
  if (find_constant(toks, "kMagic", magic, &line)) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08llX",
                  static_cast<unsigned long long>(magic));
    phrases.push_back({true, hex, "frame magic", line});
  }
  for (const Phrase& p : phrases) {
    if (input.protocol_doc.find(p.needle) != std::string::npos) continue;
    emit(findings, hpp_lines, hpp->path, p.line, kRule,
         std::string("docs/PROTOCOL.md does not state the ") + p.what +
             " as '" + p.needle + "' (protocol.hpp changed, doc did not?)");
  }

  // Op table.
  const std::vector<EnumEntry> ops = parse_enum(toks, "Op");
  const std::vector<DocRow> op_rows = table_rows(doc_lines, "## Ops");
  std::map<std::string, const DocRow*> op_by_name;
  for (const DocRow& row : op_rows) {
    if (row.cells.size() >= 3) op_by_name[row.cells[0]] = &row;
  }
  for (const EnumEntry& op : ops) {
    const std::string doc_name = upper_snake(op.name);
    const auto it = op_by_name.find(doc_name);
    if (it == op_by_name.end()) {
      emit(findings, hpp_lines, hpp->path, op.line, kRule,
           "op " + doc_name + " (" + std::to_string(op.value) +
               ") is not in the docs/PROTOCOL.md op table");
      continue;
    }
    const DocRow& row = *it->second;
    std::uint64_t doc_value = 0;
    if (!parse_number(row.cells[1], doc_value) || doc_value != op.value) {
      emit(findings, doc_lines, kDocPath, row.line, kRule,
           "op " + doc_name + " documented as value " + row.cells[1] +
               " but protocol.hpp says " + std::to_string(op.value));
    }
    const std::string expect_dir = op.value < 65 ? "request" : "response";
    if (row.cells[2] != expect_dir) {
      emit(findings, doc_lines, kDocPath, row.line, kRule,
           "op " + doc_name + " documented as '" + row.cells[2] +
               "' but its value (" + std::to_string(op.value) +
               ") makes it a " + expect_dir);
    }
    op_by_name.erase(it);
  }
  for (const auto& [name, row] : op_by_name) {
    emit(findings, doc_lines, kDocPath, row->line, kRule,
         "op " + name + " documented but absent from enum Op");
  }

  // Error-code table.
  const std::vector<EnumEntry> errors = parse_enum(toks, "ErrorCode");
  const std::vector<DocRow> err_rows = table_rows(doc_lines, "### ERROR");
  std::map<std::uint64_t, const DocRow*> err_by_code;
  for (const DocRow& row : err_rows) {
    std::uint64_t code = 0;
    if (row.cells.size() >= 2 && parse_number(row.cells[0], code)) {
      err_by_code[code] = &row;
    }
  }
  for (const EnumEntry& err : errors) {
    if (err.name == "kNone") continue;  // success, never on the wire
    const std::string doc_name = kebab(err.name);
    const auto it = err_by_code.find(err.value);
    if (it == err_by_code.end()) {
      emit(findings, hpp_lines, hpp->path, err.line, kRule,
           "error code " + std::to_string(err.value) + " (" + doc_name +
               ") is not in the docs/PROTOCOL.md error table");
      continue;
    }
    const std::string documented = strip_backticks(it->second->cells[1]);
    if (documented != doc_name) {
      emit(findings, doc_lines, kDocPath, it->second->line, kRule,
           "error code " + std::to_string(err.value) + " documented as '" +
               documented + "' but protocol.hpp names it '" + doc_name +
               "'");
    }
    err_by_code.erase(it);
  }
  for (const auto& [code, row] : err_by_code) {
    emit(findings, doc_lines, kDocPath, row->line, kRule,
         "error code " + std::to_string(code) +
             " documented but absent from enum ErrorCode");
  }

  // STATS counter block: doc field list must equal the StatsReply
  // uint64 members, same order, and kCounterCount must agree.
  const std::vector<EnumEntry> members = parse_stats_members(toks);
  std::uint64_t counter_count = 0;
  int count_line = 1;
  if (find_constant(toks, "kCounterCount", counter_count, &count_line) &&
      counter_count != members.size()) {
    emit(findings, hpp_lines, hpp->path, count_line, kRule,
         "StatsReply::kCounterCount is " + std::to_string(counter_count) +
             " but the struct has " + std::to_string(members.size()) +
             " uint64 counters");
  }
  if (input.protocol_doc.find(std::to_string(members.size()) +
                              " u64 counters") == std::string::npos) {
    emit(findings, doc_lines, kDocPath, 1, kRule,
         "docs/PROTOCOL.md does not state the STATS_REPLY counter block "
         "as '" +
             std::to_string(members.size()) + " u64 counters'");
  }
  const std::vector<DocRow> stat_rows = table_rows(doc_lines, "### STATS");
  std::vector<std::pair<std::string, int>> doc_fields;
  for (const DocRow& row : stat_rows) {
    if (!row.cells.empty() && row.cells[0].rfind("`", 0) == 0) {
      doc_fields.emplace_back(strip_backticks(row.cells[0]), row.line);
    }
  }
  const std::size_t common = std::min(members.size(), doc_fields.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (doc_fields[i].first == members[i].name) continue;
    emit(findings, doc_lines, kDocPath, doc_fields[i].second, kRule,
         "STATS_REPLY field " + std::to_string(i) + " documented as '" +
             doc_fields[i].first + "' but StatsReply declares '" +
             members[i].name + "'");
  }
  for (std::size_t i = common; i < members.size(); ++i) {
    emit(findings, hpp_lines, hpp->path, members[i].line, kRule,
         "StatsReply counter '" + members[i].name +
             "' is not in the docs/PROTOCOL.md STATS field table");
  }
  for (std::size_t i = common; i < doc_fields.size(); ++i) {
    emit(findings, doc_lines, kDocPath, doc_fields[i].second, kRule,
         "STATS_REPLY field '" + doc_fields[i].first +
             "' documented but absent from StatsReply");
  }
}

// ---- metrics-doc --------------------------------------------------

struct CatalogEntry {
  std::string name, kind, unit, component, table;
  int line = 0;
};

const std::map<std::string, std::string> kKindNames = {
    {"kCounter", "counter"},
    {"kGauge", "gauge"},
    {"kTimer", "timer"},
    {"kHistogram", "histogram"}};

std::vector<CatalogEntry> parse_catalog(const std::vector<Token>& toks) {
  std::vector<CatalogEntry> entries;
  std::size_t i = 0;
  for (; i + 1 < toks.size(); ++i) {
    if (ident_is(toks[i], "kCatalog") && punct_is(toks[i + 1], '=')) break;
  }
  if (i + 1 >= toks.size()) return entries;
  while (i < toks.size() && !punct_is(toks[i], '{')) ++i;  // outer {
  ++i;
  if (i < toks.size() && punct_is(toks[i], '{')) ++i;  // array {
  while (i < toks.size() && punct_is(toks[i], '{')) {
    CatalogEntry e;
    e.line = toks[i].line;
    ++i;
    // Field order mirrors struct Desc: name, kind, unit, component,
    // table, help.  Adjacent string literals concatenate.
    int field = 0;
    while (i < toks.size() && !punct_is(toks[i], '}')) {
      const Token& t = toks[i];
      if (punct_is(t, ',')) {
        ++field;
        ++i;
        continue;
      }
      if (t.kind == TokKind::kString) {
        const std::string piece = string_value(t);
        switch (field) {
          case 0:
            e.name += piece;
            break;
          case 2:
            e.unit += piece;
            break;
          case 3:
            e.component += piece;
            break;
          case 4:
            e.table += piece;
            break;
          default:
            break;  // help text — never compared
        }
      } else if (t.kind == TokKind::kIdent && field == 1) {
        const auto it = kKindNames.find(t.text);
        if (it != kKindNames.end()) e.kind = it->second;
      }
      ++i;
    }
    ++i;  // past entry '}'
    if (i < toks.size() && punct_is(toks[i], ',')) ++i;
    entries.push_back(std::move(e));
  }
  return entries;
}

void check_metrics(const AnalysisInput& input,
                   std::vector<Finding>& findings) {
  constexpr const char* kRule = "metrics-doc";
  constexpr const char* kDocPath = "docs/METRICS.md";
  const SourceFile* hpp = find_file(input, "retra/obs/metrics.hpp");
  if (hpp == nullptr) {
    findings.push_back({kDocPath, 1, kRule,
                        "obs/metrics.hpp not found among analyzed files"});
    return;
  }
  if (input.metrics_doc.empty()) {
    findings.push_back(
        {hpp->path, 1, kRule, "docs/METRICS.md is missing or empty"});
    return;
  }
  const std::vector<CatalogEntry> catalog =
      parse_catalog(tokenize(hpp->content));
  const std::vector<std::string> hpp_lines = split_lines(hpp->content);
  const std::vector<std::string> doc_lines = split_lines(input.metrics_doc);
  const std::vector<DocRow> rows =
      table_rows(doc_lines, "## Metric catalog");
  std::map<std::string, const DocRow*> row_by_name;
  for (const DocRow& row : rows) {
    if (row.cells.size() >= 5) {
      row_by_name[strip_backticks(row.cells[0])] = &row;
    }
  }
  for (const CatalogEntry& e : catalog) {
    const auto it = row_by_name.find(e.name);
    if (it == row_by_name.end()) {
      emit(findings, hpp_lines, hpp->path, e.line, kRule,
           "metric '" + e.name +
               "' is not in the docs/METRICS.md catalog table");
      continue;
    }
    const DocRow& row = *it->second;
    const struct {
      const char* what;
      const std::string* expect;
      const std::string* got;
    } fields[] = {
        {"kind", &e.kind, &row.cells[1]},
        {"unit", &e.unit, &row.cells[2]},
        {"component", &e.component, &row.cells[3]},
        {"paper table", &e.table, &row.cells[4]},
    };
    for (const auto& f : fields) {
      if (*f.expect == *f.got) continue;
      emit(findings, doc_lines, kDocPath, row.line, kRule,
           "metric '" + e.name + "' " + f.what + " documented as '" +
               *f.got + "' but the catalog says '" + *f.expect + "'");
    }
    row_by_name.erase(it);
  }
  for (const auto& [name, row] : row_by_name) {
    emit(findings, doc_lines, kDocPath, row->line, kRule,
         "metric '" + name + "' documented but absent from the obs catalog");
  }
}

// ---- format-doc ---------------------------------------------------

// "2^40" for large powers of two, the decimal digits otherwise — how
// FORMAT.md states the structural limits (4096 stays decimal, the
// unwieldy allocation bounds read as powers).
std::string pow2_or_decimal(std::uint64_t value) {
  if (value != 0 && (value & (value - 1)) == 0) {
    int log2 = 0;
    while ((value >> log2) != 1) ++log2;
    if (log2 >= 20) return "2^" + std::to_string(log2);
  }
  return std::to_string(value);
}

// `kMagic01 = "RTRADB01"` string constants: name -> (value, line).
std::vector<std::pair<std::string, EnumEntry>> parse_magics(
    const std::vector<Token>& toks) {
  std::vector<std::pair<std::string, EnumEntry>> magics;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        toks[i].text.rfind("kMagic", 0) != 0) {
      continue;
    }
    if (!punct_is(toks[i + 1], '=')) continue;
    if (toks[i + 2].kind != TokKind::kString) continue;
    magics.emplace_back(string_value(toks[i + 2]),
                        EnumEntry{toks[i].text, 0, toks[i].line});
  }
  return magics;
}

void check_format(const AnalysisInput& input,
                  std::vector<Finding>& findings) {
  constexpr const char* kRule = "format-doc";
  constexpr const char* kDocPath = "docs/FORMAT.md";
  const SourceFile* hpp = find_file(input, "retra/db/format.hpp");
  // Repositories without the database format layer (test fixtures) have
  // neither side of the contract; nothing to check.
  if (hpp == nullptr && input.format_doc.empty()) return;
  if (hpp == nullptr) {
    findings.push_back({kDocPath, 1, kRule,
                        "db/format.hpp not found among analyzed files"});
    return;
  }
  if (input.format_doc.empty()) {
    findings.push_back(
        {hpp->path, 1, kRule, "docs/FORMAT.md is missing or empty"});
    return;
  }
  const std::vector<Token> toks = tokenize(hpp->content);
  const std::vector<std::string> hpp_lines = split_lines(hpp->content);
  const std::vector<std::string> doc_lines = split_lines(input.format_doc);

  // Structural limits, phrased exactly as the doc states them.
  struct Phrase {
    const char* constant;
    const char* prefix;
    const char* suffix;
    const char* what;
  };
  static constexpr Phrase kPhrases[] = {
      {"kMagicBytes", "", "-byte magic", "magic width"},
      {"kMaxLevels", "at most ", " levels", "level-count ceiling"},
      {"kMaxLevelSize", "at most ", " positions", "level-size ceiling"},
      {"kDefaultBlockPositions", "**", "**", "default block size"},
      {"kMaxBlockPositions", "at most ", " positions per block",
       "block-size ceiling"},
      {"kMaxLevelBlocks", "at most ", " blocks", "block-count ceiling"},
      {"kFreqMaxSymbols", "at most ", " distinct", "symbol-table ceiling"},
      {"kFreqMaxCodeBits", "1..", "", "code-length range"},
  };
  for (const Phrase& p : kPhrases) {
    std::uint64_t value = 0;
    int line = 1;
    if (!find_constant(toks, p.constant, value, &line)) continue;
    const std::string needle =
        p.prefix + pow2_or_decimal(value) + p.suffix;
    if (input.format_doc.find(needle) != std::string::npos) continue;
    emit(findings, hpp_lines, hpp->path, line, kRule,
         std::string("docs/FORMAT.md does not state the ") + p.what +
             " as '" + needle + "' (format.hpp changed, doc did not?)");
  }

  // Version-negotiation table: one row per magic, both directions.
  const auto magics = parse_magics(toks);
  const std::vector<DocRow> version_rows =
      table_rows(doc_lines, "## Version negotiation");
  std::map<std::string, const DocRow*> row_by_magic;
  for (const DocRow& row : version_rows) {
    if (row.cells.size() >= 2) {
      row_by_magic[strip_backticks(row.cells[0])] = &row;
    }
  }
  for (const auto& [magic, entry] : magics) {
    const auto it = row_by_magic.find(magic);
    if (it == row_by_magic.end()) {
      emit(findings, hpp_lines, hpp->path, entry.line, kRule,
           "magic '" + magic +
               "' is not in the docs/FORMAT.md version-negotiation table");
      continue;
    }
    // The magic's trailing digits are the version number the row must
    // state ("RTRADB03" -> 3).
    std::uint64_t suffix = 0, documented = 0;
    if (magic.size() >= 2 &&
        parse_number(magic.substr(magic.size() - 2), suffix) &&
        (!parse_number(it->second->cells[1], documented) ||
         documented != suffix)) {
      emit(findings, doc_lines, kDocPath, it->second->line, kRule,
           "magic '" + magic + "' documented as version " +
               it->second->cells[1] + " but its magic spells version " +
               std::to_string(suffix));
    }
    row_by_magic.erase(it);
  }
  for (const auto& [magic, row] : row_by_magic) {
    emit(findings, doc_lines, kDocPath, row->line, kRule,
         "magic '" + magic +
             "' documented but absent from db/format.hpp");
  }

  // Block-scheme table: tag + kebab name per enumerator, both
  // directions, and the count constant.
  const std::vector<EnumEntry> schemes = parse_enum(toks, "BlockScheme");
  std::uint64_t scheme_count = 0;
  int count_line = 1;
  if (find_constant(toks, "kBlockSchemeCount", scheme_count, &count_line) &&
      scheme_count != schemes.size()) {
    emit(findings, hpp_lines, hpp->path, count_line, kRule,
         "kBlockSchemeCount is " + std::to_string(scheme_count) +
             " but enum BlockScheme has " + std::to_string(schemes.size()) +
             " enumerators");
  }
  const std::vector<DocRow> scheme_rows =
      table_rows(doc_lines, "## Block schemes");
  std::map<std::uint64_t, const DocRow*> row_by_tag;
  for (const DocRow& row : scheme_rows) {
    std::uint64_t tag = 0;
    if (row.cells.size() >= 2 && parse_number(row.cells[0], tag)) {
      row_by_tag[tag] = &row;
    }
  }
  for (const EnumEntry& scheme : schemes) {
    const std::string doc_name = kebab(scheme.name);
    const auto it = row_by_tag.find(scheme.value);
    if (it == row_by_tag.end()) {
      emit(findings, hpp_lines, hpp->path, scheme.line, kRule,
           "scheme tag " + std::to_string(scheme.value) + " (" + doc_name +
               ") is not in the docs/FORMAT.md block-scheme table");
      continue;
    }
    const std::string documented = strip_backticks(it->second->cells[1]);
    if (documented != doc_name) {
      emit(findings, doc_lines, kDocPath, it->second->line, kRule,
           "scheme tag " + std::to_string(scheme.value) +
               " documented as '" + documented +
               "' but format.hpp names it '" + doc_name + "'");
    }
    row_by_tag.erase(it);
  }
  for (const auto& [tag, row] : row_by_tag) {
    emit(findings, doc_lines, kDocPath, row->line, kRule,
         "scheme tag " + std::to_string(tag) +
             " documented but absent from enum BlockScheme");
  }
}

}  // namespace

std::vector<Finding> analyze_spec(const AnalysisInput& input) {
  std::vector<Finding> findings;
  check_protocol(input, findings);
  check_metrics(input, findings);
  check_format(input, findings);
  return findings;
}

}  // namespace retra::analyze
