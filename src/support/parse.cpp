#include "support/parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace popproto {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string join_tokens(const std::vector<std::string>& tokens,
                        std::size_t from, std::size_t until) {
  std::string out;
  for (std::size_t i = from; i < until; ++i) {
    if (i > from) out += ' ';
    out += tokens[i];
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view s, int base) {
  if (!s.empty() && s[0] == '+') s.remove_prefix(1);
  // from_chars takes no sign for an unsigned type and reports overflow.
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
    return std::nullopt;
  const std::string text(s);  // strtod needs the terminating NUL
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || v != v)
    return std::nullopt;
  return v;
}

}  // namespace popproto
