// Small string helpers shared by benches, examples, and tools. Kept in
// common/ (not core/) because nothing on an algorithm hot path may
// allocate strings.
#ifndef DPC_COMMON_STRING_UTIL_H_
#define DPC_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace dpc {

/// printf-style formatting into a std::string. Output longer than the
/// stack buffer falls back to a heap buffer of the exact size.
inline std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrFormat(const char* fmt, ...) {
  char stack_buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  if (static_cast<size_t>(needed) < sizeof(stack_buf)) {
    va_end(args_copy);
    return std::string(stack_buf, static_cast<size_t>(needed));
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

/// Splits on a single character; empty fields are kept.
inline std::vector<std::string> StrSplit(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

/// Parses all of `s` as a number of type T: a base-10 integer that fits
/// T, or a decimal floating-point value in T's range (std::from_chars
/// syntax: no leading whitespace or '+'; a '-' never parses into an
/// unsigned T). False, with *out untouched, on an empty string, trailing
/// characters, or an out-of-range value — input from outside the program
/// goes through here, never through atoi/atof.
template <typename T>
bool ParseNumber(std::string_view s, T* out) {
  T v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

/// Escapes a string for use inside a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace dpc

#endif  // DPC_COMMON_STRING_UTIL_H_
