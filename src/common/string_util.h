// Small string helpers used across modules (joining, formatting).

#ifndef MPQE_COMMON_STRING_UTIL_H_
#define MPQE_COMMON_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace mpqe {

/// Joins the elements of `parts` with `sep`, rendering each via
/// operator<< if it is not already a string.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out << sep;
    first = false;
    out << part;
  }
  return out.str();
}

/// Like StrJoin but renders each element through `formatter(out, elem)`.
template <typename Container, typename Formatter>
std::string StrJoin(const Container& parts, std::string_view sep,
                    Formatter&& formatter) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out << sep;
    first = false;
    formatter(out, part);
  }
  return out.str();
}

/// Concatenates streamable arguments into one string.
template <typename... Args>
std::string StrCat(Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return std::string();
  } else {
    std::ostringstream out;
    (out << ... << args);
    return out.str();
  }
}

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// `text` escaped for a JSON string literal (quotes not included):
/// quote, backslash and control characters. Node labels come from
/// user programs and may contain anything.
std::string JsonEscape(std::string_view text);

}  // namespace mpqe

#endif  // MPQE_COMMON_STRING_UTIL_H_
