#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace gfair {

namespace {

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

std::vector<std::string> SplitAndTrim(const std::string& text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delimiter, start);
    if (pos == std::string::npos) {
      pieces.push_back(Trim(text.substr(start)));
      break;
    }
    pieces.push_back(Trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return pieces;
}

ArgParser::ArgParser(int argc, const char* const argv[]) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_.emplace(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // `--name value` unless the next token is another flag (then boolean).
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      values_.emplace(body, argv[i + 1]);
      ++i;
    } else {
      values_.emplace(body, "");
    }
  }
}

bool ArgParser::Has(const std::string& name) const {
  consumed_[name] = true;
  return values_.count(name) > 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& fallback) const {
  consumed_[name] = true;
  auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

bool ArgParser::TryGetDouble(const std::string& name, double* out) const {
  consumed_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ArgParser::TryGetInt(const std::string& name, int64_t* out) const {
  consumed_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  // Out of range: strtoll saturates to LLONG_MIN/MAX and reports ERANGE.
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

bool ArgParser::GetBool(const std::string& name, bool fallback) const {
  if (!Has(name)) {
    return fallback;
  }
  const std::string value = GetString(name);
  return value.empty() || value == "1" || value == "true" || value == "yes";
}

std::vector<std::string> ArgParser::GetAll(const std::string& name) const {
  consumed_[name] = true;
  std::vector<std::string> all;
  auto [begin, end] = values_.equal_range(name);
  for (auto it = begin; it != end; ++it) {
    all.push_back(it->second);
  }
  return all;
}

std::vector<std::string> ArgParser::UnconsumedFlags() const {
  std::vector<std::string> unconsumed;
  for (const auto& [name, value] : values_) {
    if (consumed_.find(name) == consumed_.end()) {
      if (unconsumed.empty() || unconsumed.back() != name) {
        unconsumed.push_back(name);
      }
    }
  }
  return unconsumed;
}

}  // namespace gfair
