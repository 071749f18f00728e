#ifndef IQ_UTIL_JSON_H_
#define IQ_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

// The tree's one JSON helper; no JSON library is linked. Every writer
// escapes strings with JsonEscape. Every reader of a line-oriented payload
// (/profilez, /tracez, the iq_obs machine reports) looks values up by key on
// one line with JsonFind*, which unescapes exactly what JsonEscape writes.
// Writers put one record per line, so a key lookup never has to cross a
// newline; the payloads are nonetheless valid JSON.

namespace iq {

/// `s` escaped for use between the quotes of a JSON string: quote,
/// backslash, \n, \r and \t as two-character escapes, every other control
/// character as \u00XX. The result never contains a raw newline.
std::string JsonEscape(std::string_view s);

/// Finds `"key":` on `line` and stores its value in *out: a quoted value
/// unescaped, a bare value (number, true/false) trimmed at `,`, `}`, `]`
/// or the end of the line. False when the key is absent or the value is
/// cut off (an unterminated string). Tolerant by design: the readers must
/// survive hand-edited or truncated dumps.
bool JsonFindValue(std::string_view line, std::string_view key,
                   std::string* out);

/// Numeric lookups: `fallback` when the key is absent or its value is not a
/// number (JsonFindU64 also for negative values).
int64_t JsonFindInt(std::string_view line, std::string_view key,
                    int64_t fallback = 0);
uint64_t JsonFindU64(std::string_view line, std::string_view key,
                     uint64_t fallback = 0);
double JsonFindDouble(std::string_view line, std::string_view key,
                      double fallback = 0.0);

}  // namespace iq

#endif  // IQ_UTIL_JSON_H_
