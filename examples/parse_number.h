#ifndef CLASSMINER_EXAMPLES_PARSE_NUMBER_H_
#define CLASSMINER_EXAMPLES_PARSE_NUMBER_H_

#include <charconv>
#include <string>
#include <system_error>

namespace classminer {

// Parses a whole decimal flag value into `out`; false on junk, trailing
// characters or a value `T` cannot hold. Every command-line tool parses its
// numbers here, so a bad number is a usage error (exit 2) in all of them.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace classminer

#endif  // CLASSMINER_EXAMPLES_PARSE_NUMBER_H_
