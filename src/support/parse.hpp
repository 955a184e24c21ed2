// Strict text parsing shared by every text grammar the library reads:
// popprotod request lines (server/command.cpp), popsweep specs and
// manifests (sweep/), the fault-event and count-predicate forms both of
// those surfaces accept (faults/fault_plan.hpp, core/expr.hpp), and the
// tools' numeric flags. A value is accepted only when the whole token
// parses: no leading whitespace, no trailing bytes, no silent wrap of a
// negative or oversized integer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace popproto {

/// Split `line` on runs of spaces and tabs; empty fields are dropped.
std::vector<std::string> tokenize(std::string_view line);

/// tokens[from, until) joined by single spaces.
std::string join_tokens(const std::vector<std::string>& tokens,
                        std::size_t from, std::size_t until);

/// `s` as an unsigned integer in `base` (10 or 16, no "0x" prefix): an
/// optional '+', then one or more digits whose value fits in 64 bits.
std::optional<std::uint64_t> parse_u64(std::string_view s, int base = 10);

/// `s` as a double in strtod's syntax (decimal, hexfloat, inf) with no
/// leading whitespace. NaN and values strtod reports out of range are
/// rejected.
std::optional<double> parse_double(std::string_view s);

}  // namespace popproto
