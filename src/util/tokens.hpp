// tokens.hpp — allocation-free line tokenization and numeric parsing.
//
// Every line-oriented parser in the tree (the wire protocol, `.workload`
// task bodies, scenarios, traces, ring topologies) splits lines here. A
// token is a maximal run of bytes outside the whitespace set " \t\v\f\r" —
// the set stream extraction skips within one line; '\n', '\0' and high
// bytes are ordinary token bytes. The split is one char-class test per byte
// (a bit lookup, no per-character search of the set), so a line is walked
// exactly once; the numeric parsers are std::from_chars underneath with a
// strtod fallback so they accept exactly what stream extraction accepted
// (leading '+', trailing-dot literals like "5.").
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace contend::util {

/// Whitespace set matched by stream extraction within a single line.
inline constexpr std::string_view kTokenSpace = " \t\v\f\r";

/// True for the bytes of kTokenSpace.
[[nodiscard]] constexpr bool isTokenSpace(char c) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << ' ') |
                                  (std::uint64_t{1} << '\t') |
                                  (std::uint64_t{1} << '\v') |
                                  (std::uint64_t{1} << '\f') |
                                  (std::uint64_t{1} << '\r');
  const auto byte = static_cast<unsigned char>(c);
  return byte <= ' ' && ((kMask >> byte) & 1U) != 0;
}

/// Index of the first byte at or after `from` outside kTokenSpace, or
/// text.size() when there is none.
[[nodiscard]] constexpr std::size_t skipSpace(std::string_view text,
                                              std::size_t from) {
  while (from < text.size() && isTokenSpace(text[from])) ++from;
  return from;
}

/// Index of the first kTokenSpace byte at or after `from`, or text.size().
[[nodiscard]] constexpr std::size_t skipToken(std::string_view text,
                                              std::size_t from) {
  while (from < text.size() && !isTokenSpace(text[from])) ++from;
  return from;
}

/// `text` without leading and trailing kTokenSpace bytes.
[[nodiscard]] constexpr std::string_view trimSpace(std::string_view text) {
  const std::size_t begin = skipSpace(text, 0);
  std::size_t end = text.size();
  while (end > begin && isTokenSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

/// Iterates whitespace-delimited tokens of one line (no embedded '\n').
/// Tokens are views into the original text.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text) : rest_(text) {}

  /// The next token, or nullopt when the line is exhausted.
  std::optional<std::string_view> next() {
    const std::size_t begin = skipSpace(rest_, 0);
    if (begin == rest_.size()) {
      rest_ = {};
      return std::nullopt;
    }
    const std::size_t end = skipToken(rest_, begin);
    const std::string_view token(rest_.data() + begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

  /// True when no token remains (does not consume anything).
  [[nodiscard]] bool exhausted() const {
    return skipSpace(rest_, 0) == rest_.size();
  }

 private:
  std::string_view rest_;
};

/// Strict full-token integer parse (signed or unsigned target).
template <typename Int>
bool parseInteger(std::string_view token, Int& out) {
  if (token.empty()) return false;
  std::string_view body = token;
  if (body.front() == '+') body.remove_prefix(1);  // stream-extraction compat
  const char* first = body.data();
  const char* last = body.data() + body.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

/// Strict full-token double parse with stream-extraction compatibility.
inline bool parseDouble(std::string_view token, double& out) {
  if (token.empty()) return false;
  std::string_view body = token;
  if (body.front() == '+') body.remove_prefix(1);
  if (body.empty()) return false;
  const char* first = body.data();
  const char* last = body.data() + body.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc{} && ptr == last) return true;
  // Rare forms from_chars rejects but istream accepted ("5.", hex floats):
  // strtod handles them; require full consumption just the same.
  char buffer[64];
  if (body.size() >= sizeof(buffer)) return false;
  body.copy(buffer, body.size());
  buffer[body.size()] = '\0';
  char* endPtr = nullptr;
  out = std::strtod(buffer, &endPtr);
  return endPtr == buffer + body.size() && endPtr != buffer;
}

/// The line up to an unquoted '#' (comment), as a view — no allocation.
inline std::string_view stripLineComment(std::string_view line) {
  const auto hash = line.find('#');
  return hash == std::string_view::npos ? line : line.substr(0, hash);
}

/// First whitespace-delimited token of the line (after comment stripping),
/// or an empty view for blank/comment-only lines.
inline std::string_view firstToken(std::string_view line) {
  TokenCursor cursor(stripLineComment(line));
  return cursor.next().value_or(std::string_view{});
}

/// firstToken(line) == word, without scanning past the first token: the
/// framing check both serving engines run on every block line to find its
/// `end` / `end_batch` terminator. `word` must be non-empty and free of
/// kTokenSpace bytes and '#' (a '#' right after it starts a comment).
[[nodiscard]] inline bool firstTokenIs(std::string_view line,
                                       std::string_view word) {
  const std::size_t begin = skipSpace(line, 0);
  if (line.substr(begin, word.size()) != word) return false;
  const std::size_t after = begin + word.size();
  return after == line.size() || isTokenSpace(line[after]) ||
         line[after] == '#';
}

}  // namespace contend::util
