// workload_file.hpp — parser for the `.workload` text format used by the
// contend_predict CLI.
//
// The format describes what a scheduler needs at run-time: the competing
// applications currently on the front-end, and the candidate tasks with
// their dedicated-mode costs and transfer volumes. Example:
//
//     # two competitors share the front-end
//     competitor 0.30 800      # comm fraction, message words
//     competitor 0.0  0        # CPU-bound
//     competitor 0.1 64 io 0.3 40   # plus: disk fraction, ops per cycle
//
//     task solver
//       front 8.0              # dedicated front-end seconds
//       back  1.5              # back-end seconds (space-shared)
//       io 0.25 120            # share of `front` spent in disk I/O, op count
//       to_backend   512 x 512 # messages x words per message
//       from_backend 512 x 512
//     end
//
// The `io ...` suffix and the task `io` line are optional; files that never
// mention I/O parse (and re-serialize) exactly as before.
//
// Lines are independent; '#' starts a comment; blank lines ignored.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "model/comm_model.hpp"
#include "model/mix.hpp"
#include "util/tokens.hpp"

namespace contend::tools {

struct TaskSpec {
  std::string name;
  double frontEndSec = 0.0;
  double backEndSec = 0.0;
  /// Share of frontEndSec spent in disk I/O (0 = pure compute) and the
  /// number of disk operations behind it — the §4 I/O extension.
  double ioFraction = 0.0;
  std::int64_t ioOps = 0;
  std::vector<model::DataSet> toBackend;
  std::vector<model::DataSet> fromBackend;
};

struct WorkloadFile {
  std::vector<model::CompetingApp> competitors;
  std::vector<TaskSpec> tasks;
};

/// The keyword-line grammar of the format above, one line at a time. It is
/// the only implementation of that grammar: parseWorkload below drives it,
/// and so does the serve wire's PREDICT / PREDICT_BATCH block parser
/// (serve/protocol.cpp), which tokenizes each received line once and fills
/// caller-owned TaskSpec storage in place. Line-numbered error messages are
/// therefore identical across `.workload` files and the wire.
///
/// Body lines (front, back, io, to_backend, from_backend) are applied to the
/// open task directly; the caller acts on the lines that change structure.
class WorkloadLineParser {
 public:
  enum class Line {
    kCompetitor,  // `competitor ...`: the app is in competitor()
    kTask,        // `task <name>`: the caller must open() a slot next
    kBody,        // applied to the open task
    kEnd,         // `end`: the open task is complete and closed
  };

  /// Parses one non-blank line whose first token `keyword` was already taken
  /// from `rest` (comment-stripped), numbered `lineNo` for messages. Throws
  /// std::runtime_error "workload file, line N: ..." on any syntax or
  /// semantic problem.
  Line parse(std::string_view keyword, util::TokenCursor& rest, int lineNo);

  /// Opens `slot` as the task being filled, overwriting every field and
  /// keeping the slot's string and vector capacity. `slot` must stay put
  /// until the task's `end`.
  void open(TaskSpec& slot, std::string_view name);

  /// The name token of the last kTask line (a view into that line).
  [[nodiscard]] std::string_view taskName() const { return taskName_; }
  /// The app of the last kCompetitor line.
  [[nodiscard]] const model::CompetingApp& competitor() const {
    return competitor_;
  }

  /// Throws std::runtime_error when a task is still open (no `end`).
  void finish() const;

 private:
  TaskSpec* task_ = nullptr;
  bool sawFront_ = false;
  bool sawBack_ = false;
  std::string_view taskName_;
  model::CompetingApp competitor_;
};

/// Parses the format above. Throws std::runtime_error with a line-numbered
/// message on any syntax or semantic problem.
[[nodiscard]] WorkloadFile parseWorkload(std::istream& in);
[[nodiscard]] WorkloadFile parseWorkloadFile(const std::string& path);

/// Serializes back to the same format (round-trip tested).
void writeWorkload(const WorkloadFile& workload, std::ostream& out);

}  // namespace contend::tools
