// Trace serialization — CSV import/export of job traces.
//
// Format (header required, one job per line):
//   arrival_ms,user,model,gang_size,minibatches[,weight]
// `user` is the user's NAME; ParseTrace resolves (or creates) users in the
// given table so traces are portable across runs and tools. Before the
// header, SerializeTrace writes one line per user of the table, in id order:
//   #user,NAME,TICKETS,GROUP
// (GROUP empty for an ungrouped user). Readers that predate these lines
// skip them as comments.
#ifndef GFAIR_WORKLOAD_TRACE_IO_H_
#define GFAIR_WORKLOAD_TRACE_IO_H_

#include <string>
#include <vector>

#include "workload/model_zoo.h"
#include "workload/trace_gen.h"
#include "workload/user.h"

namespace gfair::workload {

// A TraceEntry plus the per-job weight (TraceEntry itself predates weights;
// generated traces default to 1.0).
struct TraceFileEntry {
  TraceEntry entry;
  double weight = 1.0;
};

// Renders entries as CSV. User names come from `users`; model names from
// `zoo`. Entries are emitted in the given order.
std::string SerializeTrace(const std::vector<TraceFileEntry>& entries,
                           const UserTable& users, const ModelZoo& zoo);

// Convenience overload for generator output.
std::string SerializeTrace(const std::vector<TraceEntry>& entries,
                           const UserTable& users, const ModelZoo& zoo);

// Parses CSV produced by SerializeTrace (or hand-written). A #user line
// before the header creates its user with the line's tickets and group,
// unless `users` already holds that name (the table's own user is kept);
// other unknown names are created with 1.0 tickets. After the header every
// '#' line is a comment. Unknown models are an error. On failure returns
// false and sets `error` to a message including the 1-based line number.
bool ParseTrace(const std::string& csv, const ModelZoo& zoo, UserTable* users,
                std::vector<TraceFileEntry>* out, std::string* error);

// File wrappers; return false on I/O failure (ParseTraceFile also surfaces
// parse errors through `error`).
bool WriteTraceFile(const std::string& path, const std::vector<TraceFileEntry>& entries,
                    const UserTable& users, const ModelZoo& zoo);
bool ReadTraceFile(const std::string& path, const ModelZoo& zoo, UserTable* users,
                   std::vector<TraceFileEntry>* out, std::string* error);

}  // namespace gfair::workload

#endif  // GFAIR_WORKLOAD_TRACE_IO_H_
