#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "common/check.h"

namespace decseq::common {

namespace {

/// from_chars into 64 bits: digits only, the whole token, no overflow.
bool parse_digits(std::string_view token, std::uint64_t& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::uint32_t parse_below(std::string_view token, std::uint64_t limit,
                          std::string_view what) {
  DECSEQ_CHECK(limit <=
               std::uint64_t{std::numeric_limits<std::uint32_t>::max()} + 1);
  std::uint64_t value = 0;
  DECSEQ_CHECK_MSG(parse_digits(token, value) && value < limit,
                   "bad " << what << " '" << token << "' (must be below "
                          << limit << ")");
  return static_cast<std::uint32_t>(value);
}

std::uint64_t parse_u64(std::string_view token, std::string_view what) {
  std::uint64_t value = 0;
  DECSEQ_CHECK_MSG(parse_digits(token, value),
                   "bad " << what << " '" << token
                          << "' (must be a 64-bit unsigned integer)");
  return value;
}

double parse_nonnegative(std::string_view token, std::string_view what) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  DECSEQ_CHECK_MSG(ec == std::errc() && ptr == end && std::isfinite(value) &&
                       value >= 0.0,
                   "bad " << what << " '" << token
                          << "' (must be a finite number >= 0)");
  return value;
}

}  // namespace decseq::common
