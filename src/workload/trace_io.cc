#include "workload/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "cluster/gpu.h"
#include "common/check.h"
#include "common/flags.h"

namespace gfair::workload {

namespace {
constexpr char kHeader[] = "arrival_ms,user,model,gang_size,minibatches,weight";
// A user line: "#user,NAME,TICKETS,GROUP" (GROUP may be empty). Older
// readers skip it as a comment.
constexpr char kUserLine[] = "#user";
// The longest run a row may ask for, 10^8 h: the executor times a run in
// int64 milliseconds, and 10^8 h is ~3.6e17 ms, well inside that range.
constexpr double kMaxRunSeconds = 1e8 * 3600.0;

bool ParsePositiveDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // strtod accepts "nan" and "inf" spellings; "nan" even passes a `<= 0`
  // test (all comparisons are false), and inf minibatches would make a job
  // that never finishes. Require a finite positive value.
  if (end == nullptr || *end != '\0' || !std::isfinite(value) || value <= 0.0) {
    return false;
  }
  *out = value;
  return true;
}

// Names are CSV fields without quoting support, so a delimiter or line break
// inside one would silently shift every later column at parse time.
bool NameIsSerializable(const std::string& name) {
  return name.find_first_of(",\r\n") == std::string::npos;
}
}  // namespace

std::string SerializeTrace(const std::vector<TraceFileEntry>& entries,
                           const UserTable& users, const ModelZoo& zoo) {
  std::ostringstream out;
  for (const User& user : users.users()) {
    GFAIR_CHECK_MSG(NameIsSerializable(user.name) && NameIsSerializable(user.group),
                    "user or group name contains a CSV delimiter or line break");
    char tickets[32];
    std::snprintf(tickets, sizeof(tickets), "%.17g", user.tickets.raw());
    out << kUserLine << ',' << user.name << ',' << tickets << ',' << user.group << '\n';
  }
  out << kHeader << '\n';
  for (const auto& file_entry : entries) {
    const TraceEntry& entry = file_entry.entry;
    const std::string& user_name = users.Get(entry.user).name;
    const std::string& model_name = zoo.Get(entry.model).name;
    GFAIR_CHECK_MSG(NameIsSerializable(user_name),
                    "user name contains a CSV delimiter or line break");
    GFAIR_CHECK_MSG(NameIsSerializable(model_name),
                    "model name contains a CSV delimiter or line break");
    char line[256];
    const int written =
        std::snprintf(line, sizeof(line), "%lld,%s,%s,%d,%.6f,%.4f",
                      static_cast<long long>(entry.arrival), user_name.c_str(),
                      model_name.c_str(), entry.gang_size, entry.total_minibatches,
                      file_entry.weight);
    GFAIR_CHECK(written >= 0);
    if (static_cast<size_t>(written) < sizeof(line)) {
      out << line << '\n';
    } else {
      // Row longer than the stack buffer (very long names): redo into a
      // right-sized heap buffer instead of silently truncating the row.
      std::vector<char> big(static_cast<size_t>(written) + 1);
      std::snprintf(big.data(), big.size(), "%lld,%s,%s,%d,%.6f,%.4f",
                    static_cast<long long>(entry.arrival), user_name.c_str(),
                    model_name.c_str(), entry.gang_size, entry.total_minibatches,
                    file_entry.weight);
      out << big.data() << '\n';
    }
  }
  return out.str();
}

std::string SerializeTrace(const std::vector<TraceEntry>& entries,
                           const UserTable& users, const ModelZoo& zoo) {
  std::vector<TraceFileEntry> file_entries;
  file_entries.reserve(entries.size());
  for (const auto& entry : entries) {
    file_entries.push_back(TraceFileEntry{entry, 1.0});
  }
  return SerializeTrace(file_entries, users, zoo);
}

bool ParseTrace(const std::string& csv, const ModelZoo& zoo, UserTable* users,
                std::vector<TraceFileEntry>* out, std::string* error) {
  GFAIR_CHECK(users != nullptr && out != nullptr && error != nullptr);
  out->clear();
  error->clear();

  std::istringstream in(csv);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  std::vector<std::string> declared;  // names of this file's user lines

  auto fail = [&](const std::string& message) {
    *error = "line " + std::to_string(line_number) + ": " + message;
    return false;
  };

  while (std::getline(in, line)) {
    ++line_number;
    // Strip trailing CR for files written on Windows.
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!saw_header && line.rfind(std::string(kUserLine) + ",", 0) == 0) {
      // A user line before the header: create the user with its tickets and
      // group unless the table already holds one of that name.
      const auto fields = SplitAndTrim(line, ',');
      double tickets = 0.0;
      if (fields.size() != 4 || fields[1].empty() || !ParsePositiveDouble(fields[2], &tickets)) {
        return fail("bad user line '" + line + "' (expected '#user,NAME,TICKETS,GROUP')");
      }
      if (std::find(declared.begin(), declared.end(), fields[1]) != declared.end()) {
        return fail("duplicate user line for '" + fields[1] + "'");
      }
      declared.push_back(fields[1]);
      const bool known = std::any_of(users->users().begin(), users->users().end(),
                                     [&](const User& user) { return user.name == fields[1]; });
      if (!known) {
        if (fields[3].empty()) {
          users->Create(fields[1], tickets);
        } else {
          users->CreateInGroup(fields[1], fields[3], tickets);
        }
      }
      continue;
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!saw_header) {
      const auto headers = SplitAndTrim(line, ',');
      if (headers.size() < 5 || headers[0] != "arrival_ms" || headers[1] != "user") {
        return fail("expected header '" + std::string(kHeader) + "'");
      }
      saw_header = true;
      continue;
    }

    const auto fields = SplitAndTrim(line, ',');
    if (fields.size() != 5 && fields.size() != 6) {
      return fail("expected 5 or 6 fields, got " + std::to_string(fields.size()));
    }

    TraceFileEntry file_entry;
    TraceEntry& entry = file_entry.entry;

    char* end = nullptr;
    errno = 0;  // strtoll clamps an out-of-range value and reports ERANGE
    const long long arrival = std::strtoll(fields[0].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE || arrival < 0) {
      return fail("bad arrival_ms '" + fields[0] + "'");
    }
    entry.arrival = arrival;

    if (fields[1].empty()) {
      return fail("empty user name");
    }
    UserId user = UserId::Invalid();
    for (const auto& existing : users->users()) {
      if (existing.name == fields[1]) {
        user = existing.id;
        break;
      }
    }
    if (!user.valid()) {
      user = users->Create(fields[1]).id;
    }
    entry.user = user;

    if (!zoo.Contains(fields[2])) {
      return fail("unknown model '" + fields[2] + "'");
    }
    entry.model = zoo.GetByName(fields[2]).id;

    const long long gang = std::strtoll(fields[3].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || gang < 1 || gang > 1024) {
      return fail("bad gang_size '" + fields[3] + "'");
    }
    entry.gang_size = static_cast<int>(gang);

    if (!ParsePositiveDouble(fields[4], &entry.total_minibatches)) {
      return fail("bad minibatches '" + fields[4] + "'");
    }
    // The K80 is the slowest generation (the zoo refuses a newer, slower
    // one), so this bounds the row's run time anywhere in the cluster.
    const double k80_seconds =
        entry.total_minibatches /
        zoo.Get(entry.model).GangThroughput(cluster::GpuGeneration::kK80, entry.gang_size);
    if (k80_seconds > kMaxRunSeconds) {
      return fail("minibatches '" + fields[4] + "' run longer than 1e8 h on a K80");
    }
    if (fields.size() == 6 && !ParsePositiveDouble(fields[5], &file_entry.weight)) {
      return fail("bad weight '" + fields[5] + "'");
    }
    out->push_back(file_entry);
  }
  if (!saw_header) {
    line_number = 1;
    return fail("empty trace (no header)");
  }
  return true;
}

bool WriteTraceFile(const std::string& path, const std::vector<TraceFileEntry>& entries,
                    const UserTable& users, const ModelZoo& zoo) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << SerializeTrace(entries, users, zoo);
  return static_cast<bool>(file);
}

bool ReadTraceFile(const std::string& path, const ModelZoo& zoo, UserTable* users,
                   std::vector<TraceFileEntry>* out, std::string* error) {
  GFAIR_CHECK(error != nullptr);
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseTrace(content.str(), zoo, users, out, error);
}

}  // namespace gfair::workload
