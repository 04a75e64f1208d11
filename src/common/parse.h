// Strict decimal parsing for the text readers (cluster configs, delivery
// logs, membership files, fuzz repro files).
//
// std::stoul accepts a leading '-' (it negates in unsigned arithmetic) and
// returns an unsigned long that callers then narrow, so "-1" reads as
// 4294967295 and "4294967297" as 1. These helpers take digits only, reject
// trailing junk and an empty token, and refuse any value at or above a
// stated limit, all with a CheckFailure that names the field.
#pragma once

#include <cstdint>
#include <string_view>

namespace decseq::common {

/// A decimal token below `limit` (at most 2^32); anything else (a sign,
/// trailing junk, overflow) throws CheckFailure naming `what`.
[[nodiscard]] std::uint32_t parse_below(std::string_view token,
                                        std::uint64_t limit,
                                        std::string_view what);

/// The 64-bit form: any decimal token that fits in 64 bits.
[[nodiscard]] std::uint64_t parse_u64(std::string_view token,
                                      std::string_view what);

/// A finite number >= 0 (a time, a duration, a probability) spelled as the
/// whole token: std::from_chars takes no leading space or '+' and no hex
/// prefix, and nan, inf, negatives and out-of-range values throw
/// CheckFailure naming `what`.
[[nodiscard]] double parse_nonnegative(std::string_view token,
                                       std::string_view what);

}  // namespace decseq::common
