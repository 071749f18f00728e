#include "util/json.h"

#include <cstdlib>

#include "util/string_util.h"

namespace iq {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonFindValue(std::string_view line, std::string_view key,
                   std::string* out) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  size_t v = pos + needle.size();
  while (v < line.size() && line[v] == ' ') ++v;
  if (v >= line.size()) return false;
  if (line[v] != '"') {
    size_t e = line.find_first_of(",}]", v);
    if (e == std::string_view::npos) e = line.size();
    *out = std::string(StrTrim(line.substr(v, e - v)));
    return !out->empty();
  }
  std::string value;
  for (size_t i = v + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      *out = std::move(value);
      return true;
    }
    if (c != '\\') {
      value += c;
      continue;
    }
    if (++i >= line.size()) return false;
    switch (line[i]) {
      case 'n':
        value += '\n';
        break;
      case 'r':
        value += '\r';
        break;
      case 't':
        value += '\t';
        break;
      case 'u': {
        // JsonEscape only writes \u00XX (control characters), so a single
        // byte is all a \u escape can carry here.
        if (i + 4 >= line.size()) return false;
        const std::string hex(line.substr(i + 1, 4));
        char* end = nullptr;
        const unsigned long code = std::strtoul(hex.c_str(), &end, 16);
        if (end != hex.c_str() + hex.size() || code > 0xff) return false;
        value += static_cast<char>(code);
        i += 4;
        break;
      }
      default:  // \" \\ \/ and anything else stand for themselves
        value += line[i];
    }
  }
  return false;
}

int64_t JsonFindInt(std::string_view line, std::string_view key,
                    int64_t fallback) {
  std::string raw;
  if (!JsonFindValue(line, key, &raw)) return fallback;
  auto v = ParseInt(raw);
  return v.ok() ? *v : fallback;
}

uint64_t JsonFindU64(std::string_view line, std::string_view key,
                     uint64_t fallback) {
  const int64_t v = JsonFindInt(line, key, -1);
  return v >= 0 ? static_cast<uint64_t>(v) : fallback;
}

double JsonFindDouble(std::string_view line, std::string_view key,
                      double fallback) {
  std::string raw;
  if (!JsonFindValue(line, key, &raw)) return fallback;
  auto v = ParseDouble(raw);
  return v.ok() ? *v : fallback;
}

}  // namespace iq
