#include "src/sim/plan.h"

#include <cctype>
#include <limits>

namespace sim {

void SkipWs(const std::string& s, std::size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i])) != 0) {
    ++*i;
  }
}

bool ParseU64(const std::string& s, std::size_t* i, std::uint64_t* out) {
  const std::size_t start = *i;
  std::uint64_t v = 0;
  while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i])) != 0) {
    const auto digit = static_cast<std::uint64_t>(s[*i] - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
    ++*i;
  }
  if (*i == start) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseTime(const std::string& s, std::size_t* i, Nanoseconds* out) {
  std::uint64_t n = 0;
  if (!ParseU64(s, i, &n)) {
    return false;
  }
  std::uint64_t scale = 1;
  if (s.compare(*i, 2, "ns") == 0) {
    *i += 2;
  } else if (s.compare(*i, 2, "us") == 0) {
    scale = 1'000, *i += 2;
  } else if (s.compare(*i, 2, "ms") == 0) {
    scale = 1'000'000, *i += 2;
  } else if (*i < s.size() && s[*i] == 's') {
    scale = 1'000'000'000, *i += 1;
  }
  if (n > std::numeric_limits<Nanoseconds>::max() / scale) {
    return false;
  }
  *out = n * scale;
  return true;
}

std::string FormatTime(Nanoseconds ns) {
  if (ns != 0 && ns % 1'000'000'000 == 0) {
    return std::to_string(ns / 1'000'000'000) + "s";
  }
  if (ns != 0 && ns % 1'000'000 == 0) {
    return std::to_string(ns / 1'000'000) + "ms";
  }
  if (ns != 0 && ns % 1'000 == 0) {
    return std::to_string(ns / 1'000) + "us";
  }
  return std::to_string(ns) + "ns";
}

bool ForEachPlanItem(const std::string& spec, char sep,
                     const std::function<bool(const std::string&)>& fn) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(sep, pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    std::size_t i = 0;
    SkipWs(item, &i);
    if (i != item.size() && !fn(item)) {
      return false;
    }
  }
  return true;
}

}  // namespace sim
