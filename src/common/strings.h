// Small string utilities shared by the ADL and rule-language parsers,
// the /obs endpoints and the command-line tools.

#ifndef DBM_COMMON_STRINGS_H_
#define DBM_COMMON_STRINGS_H_

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace dbm {

/// Splits `s` on `delim`, omitting empty pieces when `skip_empty`.
std::vector<std::string> Split(std::string_view s, char delim,
                               bool skip_empty = false);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// True if `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive equality for ASCII.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses the whole of `text` as a T: nullopt when it is empty, malformed,
/// out of T's range or followed by anything else. For numbers that come
/// from outside input (flags, environment, request strings), where a
/// number that only half parses is an error rather than a prefix.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace dbm

#endif  // DBM_COMMON_STRINGS_H_
