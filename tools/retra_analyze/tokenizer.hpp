// Lexical C++ tokenizer behind every retra_analyze rule.
//
// Not a parser: it splits source into identifier / number / string /
// char / punctuation tokens with 1-based line numbers, correctly
// skipping every kind of comment and literal the repo uses — raw
// strings (R"(...)"), encoding prefixes (u8R"..."), escape sequences,
// and digit separators (1'000'000).  Everything the analyses conclude
// is derived from these tokens, so a "rand" inside a string or a quote
// inside a raw string can never masquerade as code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace retra::analyze {

enum class TokKind {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals, digit separators and suffixes included
  kString,  // string literals, prefix and quotes included
  kChar,    // character literals, quotes included
  kPunct,   // one punctuation character
};

struct Token {
  TokKind kind;
  std::string text;  // raw spelling (strings keep their quotes)
  int line = 1;      // 1-based line of the token's first character
};

/// Lexes `source`, skipping whitespace and comments.
std::vector<Token> tokenize(std::string_view source);

/// Returns `source` with comment text and string/char literal contents
/// replaced by spaces.  Line structure and byte count are preserved
/// exactly (newlines survive), and literal delimiters are kept, so
/// line-based rules can run over the result without literal or comment
/// text triggering them.
std::string strip_to_code(std::string_view source);

/// The value of a kString token: prefix and quotes removed, common
/// escape sequences (\\ \" \n \t \r \0) decoded.  Raw strings return
/// their raw contents.
std::string string_value(const Token& token);

}  // namespace retra::analyze
