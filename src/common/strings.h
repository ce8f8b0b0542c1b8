#ifndef BATI_COMMON_STRINGS_H_
#define BATI_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace bati {

/// ASCII uppercase copy.
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delimiter);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

}  // namespace bati

#endif  // BATI_COMMON_STRINGS_H_
