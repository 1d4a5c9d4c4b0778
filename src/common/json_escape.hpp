/**
 * @file
 * JSON string escaping, shared by the structured logger (common/) and the
 * JSON writer of the exporters (obs/).
 */

#ifndef STACKSCOPE_COMMON_JSON_ESCAPE_HPP
#define STACKSCOPE_COMMON_JSON_ESCAPE_HPP

#include <string>
#include <string_view>

namespace stackscope {

/**
 * Escape @p text for inclusion inside a JSON string literal: quote,
 * backslash and the short-escape controls get their two-byte forms,
 * every other byte below 0x20 becomes \\u00XX.
 */
std::string jsonEscape(std::string_view text);

}  // namespace stackscope

#endif  // STACKSCOPE_COMMON_JSON_ESCAPE_HPP
