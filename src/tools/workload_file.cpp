#include "tools/workload_file.hpp"

#include <fstream>
#include <stdexcept>
#include <string_view>

#include "util/tokens.hpp"

namespace contend::tools {

namespace {

using util::TokenCursor;

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("workload file, line " + std::to_string(line) +
                           ": " + message);
}

void rejectTrailing(TokenCursor& cursor, int line) {
  if (const auto extra = cursor.next()) {
    fail(line, "trailing tokens: '" + std::string(*extra) + "'");
  }
}

double parseSeconds(TokenCursor& cursor, int line) {
  const auto token = cursor.next();
  double seconds = 0.0;
  if (!token || !util::parseDouble(*token, seconds) || seconds < 0.0) {
    fail(line, "expected a non-negative duration in seconds");
  }
  return seconds;
}

/// Parses "N x W" into a DataSet.
model::DataSet parseDataSet(TokenCursor& cursor, int line) {
  std::int64_t messages = 0;
  Words words = 0;
  const auto count = cursor.next();
  const auto x = cursor.next();
  const auto size = cursor.next();
  if (!count || !x || !size || *x != "x" ||
      !util::parseInteger(*count, messages) ||
      !util::parseInteger(*size, words)) {
    fail(line, "expected '<messages> x <words>'");
  }
  if (messages <= 0 || words < 0) {
    fail(line, "message count must be positive and words non-negative");
  }
  rejectTrailing(cursor, line);
  return model::DataSet{messages, words};
}

/// Parses the shared "<fraction> <ops>" I/O pair (competitor suffix and
/// task `io` line) with its range checks.
void parseIoPair(TokenCursor& cursor, int line, double& ioFraction,
                 std::int64_t& ioOps) {
  const auto fraction = cursor.next();
  const auto ops = cursor.next();
  if (!fraction || !ops || !util::parseDouble(*fraction, ioFraction) ||
      !util::parseInteger(*ops, ioOps)) {
    fail(line, "expected 'io <fraction> <ops>'");
  }
  if (ioFraction < 0.0 || ioFraction > 1.0) {
    fail(line, "io fraction outside [0, 1]");
  }
  if (ioOps < 0) fail(line, "io ops must be non-negative");
  if (ioFraction > 0.0 && ioOps <= 0) {
    fail(line, "I/O-doing entry needs an op count");
  }
}

}  // namespace

WorkloadLineParser::Line WorkloadLineParser::parse(std::string_view keyword,
                                                   TokenCursor& cursor,
                                                   int lineNo) {
  if (keyword == "competitor") {
    if (task_ != nullptr) {
      fail(lineNo, "'competitor' not allowed inside a task");
    }
    model::CompetingApp app;
    const auto fraction = cursor.next();
    const auto words = cursor.next();
    if (!fraction || !words ||
        !util::parseDouble(*fraction, app.commFraction) ||
        !util::parseInteger(*words, app.messageWords)) {
      fail(lineNo, "expected 'competitor <fraction> <words>'");
    }
    if (app.commFraction < 0.0 || app.commFraction > 1.0) {
      fail(lineNo, "comm fraction outside [0, 1]");
    }
    if (app.commFraction > 0.0 && app.messageWords <= 0) {
      fail(lineNo, "communicating competitor needs a message size");
    }
    if (const auto io = cursor.next()) {
      if (*io != "io") {
        fail(lineNo, "expected 'io <fraction> <ops>' after message words");
      }
      parseIoPair(cursor, lineNo, app.ioFraction, app.ioOps);
      if (app.commFraction + app.ioFraction > 1.0) {
        fail(lineNo, "comm + io fractions exceed 1");
      }
      rejectTrailing(cursor, lineNo);
    }
    competitor_ = app;
    return Line::kCompetitor;
  }
  if (keyword == "task") {
    if (task_ != nullptr) fail(lineNo, "nested 'task' (missing 'end'?)");
    const auto name = cursor.next();
    if (!name) fail(lineNo, "task needs a name");
    taskName_ = *name;
    return Line::kTask;
  }
  if (keyword == "front" || keyword == "back") {
    if (task_ == nullptr) {
      fail(lineNo, "'" + std::string(keyword) + "' outside a task");
    }
    const double seconds = parseSeconds(cursor, lineNo);
    const bool front = keyword == "front";
    (front ? task_->frontEndSec : task_->backEndSec) = seconds;
    (front ? sawFront_ : sawBack_) = true;
    return Line::kBody;
  }
  if (keyword == "io") {
    if (task_ == nullptr) fail(lineNo, "'io' outside a task");
    parseIoPair(cursor, lineNo, task_->ioFraction, task_->ioOps);
    rejectTrailing(cursor, lineNo);
    return Line::kBody;
  }
  if (keyword == "to_backend" || keyword == "from_backend") {
    if (task_ == nullptr) {
      fail(lineNo, "'" + std::string(keyword) + "' outside a task");
    }
    (keyword == "to_backend" ? task_->toBackend : task_->fromBackend)
        .push_back(parseDataSet(cursor, lineNo));
    return Line::kBody;
  }
  if (keyword == "end") {
    if (task_ == nullptr) fail(lineNo, "'end' without 'task'");
    if (!sawFront_ || !sawBack_) {
      fail(lineNo, "task '" + task_->name +
                       "' needs both 'front' and 'back' costs");
    }
    task_ = nullptr;
    return Line::kEnd;
  }
  fail(lineNo, "unknown keyword '" + std::string(keyword) + "'");
}

void WorkloadLineParser::open(TaskSpec& slot, std::string_view name) {
  slot.name.assign(name);
  slot.frontEndSec = 0.0;
  slot.backEndSec = 0.0;
  slot.ioFraction = 0.0;
  slot.ioOps = 0;
  slot.toBackend.clear();
  slot.fromBackend.clear();
  task_ = &slot;
  sawFront_ = sawBack_ = false;
}

void WorkloadLineParser::finish() const {
  if (task_ != nullptr) {
    throw std::runtime_error("workload file: task '" + task_->name +
                             "' not closed with 'end'");
  }
}

WorkloadFile parseWorkload(std::istream& in) {
  WorkloadFile workload;
  WorkloadLineParser lines;
  std::string raw;
  for (int lineNo = 1; std::getline(in, raw); ++lineNo) {
    TokenCursor cursor(util::stripLineComment(raw));
    const auto keyword = cursor.next();
    if (!keyword) continue;  // blank / comment-only
    switch (lines.parse(*keyword, cursor, lineNo)) {
      case WorkloadLineParser::Line::kCompetitor:
        workload.competitors.push_back(lines.competitor());
        break;
      case WorkloadLineParser::Line::kTask:
        lines.open(workload.tasks.emplace_back(), lines.taskName());
        break;
      case WorkloadLineParser::Line::kBody:
      case WorkloadLineParser::Line::kEnd:
        break;
    }
  }
  lines.finish();
  return workload;
}

WorkloadFile parseWorkloadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload file " + path);
  return parseWorkload(in);
}

void writeWorkload(const WorkloadFile& workload, std::ostream& out) {
  out << "# contend workload description\n";
  for (const model::CompetingApp& app : workload.competitors) {
    out << "competitor " << app.commFraction << ' ' << app.messageWords;
    // The io suffix is emitted only when present, so pre-I/O files
    // round-trip byte-identically.
    if (app.ioFraction > 0.0 || app.ioOps > 0) {
      out << " io " << app.ioFraction << ' ' << app.ioOps;
    }
    out << '\n';
  }
  for (const TaskSpec& task : workload.tasks) {
    out << "task " << task.name << '\n';
    out << "  front " << task.frontEndSec << '\n';
    out << "  back " << task.backEndSec << '\n';
    if (task.ioFraction > 0.0 || task.ioOps > 0) {
      out << "  io " << task.ioFraction << ' ' << task.ioOps << '\n';
    }
    for (const model::DataSet& ds : task.toBackend) {
      out << "  to_backend " << ds.messages << " x " << ds.words << '\n';
    }
    for (const model::DataSet& ds : task.fromBackend) {
      out << "  from_backend " << ds.messages << " x " << ds.words << '\n';
    }
    out << "end\n";
  }
}

}  // namespace contend::tools
