// ArgParser — minimal command-line flag parsing for tools and benches.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms.
// Unknown positional arguments are collected separately. No global state.
#ifndef GFAIR_COMMON_FLAGS_H_
#define GFAIR_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace gfair {

class ArgParser {
 public:
  // Parses argv; returns false (with a message in error()) on malformed
  // input such as a dangling `--name` that expects a value elsewhere.
  ArgParser(int argc, const char* const argv[]);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name, const std::string& fallback = "") const;
  bool GetBool(const std::string& name, bool fallback = false) const;

  // Numeric getters: false when the flag is absent or its whole value does
  // not parse, leaving `*out` untouched.
  bool TryGetDouble(const std::string& name, double* out) const;
  bool TryGetInt(const std::string& name, int64_t* out) const;

  // All occurrences of a repeatable flag, in order.
  std::vector<std::string> GetAll(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Names that were parsed but never queried — typo detection for tools.
  std::vector<std::string> UnconsumedFlags() const;

 private:
  std::multimap<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> consumed_;
};

// Splits `text` on `delimiter`, trimming ASCII whitespace from each piece.
// Empty pieces are preserved ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> SplitAndTrim(const std::string& text, char delimiter);

}  // namespace gfair

#endif  // GFAIR_COMMON_FLAGS_H_
