#include "trace/job_trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/tokens.hpp"

namespace contend::trace {

namespace {

/// A token with its absolute byte offset — the unit of error reporting.
struct Token {
  std::string_view text;
  std::size_t offset = 0;
};

class Parser {
 public:
  Parser(std::string_view text, std::string name)
      : text_(text), name_(std::move(name)) {}

  JobTrace parse() {
    JobTrace result;
    result.name = name_;
    std::unordered_set<std::string> jobNames;
    std::vector<Token> tokens;
    while (nextContentLine(tokens)) {
      const Token& keyword = tokens.front();
      if (keyword.text == "job") {
        result.jobs.push_back(parseJob(tokens, jobNames));
      } else if (keyword.text == "end") {
        fail(keyword.offset, "'end' without an open 'job' block");
      } else {
        fail(keyword.offset, "expected 'job <name>', got '" +
                                 std::string(keyword.text) + "'");
      }
    }
    if (result.jobs.empty()) {
      fail(text_.size(), "trace defines no jobs");
    }
    return result;
  }

 private:
  // ---- line scanning ------------------------------------------------------

  /// Tokenizes the next line that has content after comment stripping.
  /// Every token records its absolute byte offset in the source.
  bool nextContentLine(std::vector<Token>& out) {
    out.clear();
    while (pos_ < text_.size()) {
      const std::size_t lineStart = pos_;
      const std::size_t newline = text_.find('\n', pos_);
      const std::size_t lineEnd =
          newline == std::string_view::npos ? text_.size() : newline;
      pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
      const std::string_view raw =
          text_.substr(lineStart, lineEnd - lineStart);
      const std::string_view content = util::stripLineComment(raw);
      std::size_t cursor = 0;
      while (cursor < content.size()) {
        const std::size_t begin = util::skipSpace(content, cursor);
        if (begin == content.size()) break;
        const std::size_t end = util::skipToken(content, begin);
        out.push_back(
            Token{content.substr(begin, end - begin), lineStart + begin});
        cursor = end;
      }
      if (!out.empty()) return true;
    }
    return false;
  }

  // ---- token -> value parsers (byte-accurate rejects) ---------------------

  /// The token after `index`, or a reject at the end of the line.
  const Token& expectArg(const std::vector<Token>& tokens, std::size_t index,
                         const char* what) const {
    if (index >= tokens.size()) {
      const Token& last = tokens.back();
      fail(last.offset + last.text.size(),
           std::string("expected ") + what + " after '" +
               std::string(last.text) + "'");
    }
    return tokens[index];
  }

  void rejectTrailing(const std::vector<Token>& tokens,
                      std::size_t expected) const {
    if (tokens.size() > expected) {
      fail(tokens[expected].offset,
           "trailing tokens: '" + std::string(tokens[expected].text) + "'");
    }
  }

  double parseSeconds(const Token& token, const char* what) const {
    double out = 0.0;
    if (!util::parseDouble(token.text, out) || !std::isfinite(out)) {
      fail(token.offset, std::string("malformed ") + what + " '" +
                             std::string(token.text) + "'");
    }
    if (out < 0.0) {
      fail(token.offset, std::string(what) + " must be >= 0, got " +
                             std::string(token.text));
    }
    return out;
  }

  template <typename Int>
  Int parseCount(const Token& token, Int minimum, const char* what) const {
    Int out{};
    if (!util::parseInteger(token.text, out)) {
      fail(token.offset, std::string("malformed ") + what + " '" +
                             std::string(token.text) + "'");
    }
    if (out < minimum) {
      fail(token.offset, std::string(what) + " must be >= " +
                             std::to_string(minimum) + ", got " +
                             std::string(token.text));
    }
    return out;
  }

  // ---- blocks -------------------------------------------------------------

  TraceJob parseJob(const std::vector<Token>& header,
                    std::unordered_set<std::string>& jobNames) {
    const Token& nameToken = expectArg(header, 1, "a job name");
    rejectTrailing(header, 2);
    TraceJob job;
    job.name = std::string(nameToken.text);
    if (!jobNames.insert(job.name).second) {
      fail(nameToken.offset, "duplicate job name '" + job.name + "'");
    }
    job.className = job.name;

    bool sawClass = false;
    bool sawArrive = false;
    std::vector<Token> tokens;
    for (;;) {
      if (!nextContentLine(tokens)) {
        fail(text_.size(), "job '" + job.name +
                               "' not closed with 'end' before end of input");
      }
      const Token& keyword = tokens.front();
      if (keyword.text == "end") {
        rejectTrailing(tokens, 1);
        break;
      }
      if (keyword.text == "job") {
        fail(keyword.offset,
             "nested 'job' inside '" + job.name + "' (missing 'end'?)");
      }
      if (keyword.text == "class") {
        if (sawClass) fail(keyword.offset, "job repeats 'class'");
        sawClass = true;
        job.className =
            std::string(expectArg(tokens, 1, "a class name").text);
        rejectTrailing(tokens, 2);
      } else if (keyword.text == "arrive") {
        if (sawArrive) fail(keyword.offset, "job repeats 'arrive'");
        sawArrive = true;
        job.arriveSec = parseSeconds(
            expectArg(tokens, 1, "an arrival time in seconds"),
            "arrival time");
        rejectTrailing(tokens, 2);
      } else if (keyword.text == "compute") {
        TracePhase phase;
        phase.kind = TracePhase::Kind::kCompute;
        phase.seconds = parseSeconds(
            expectArg(tokens, 1, "a duration in seconds"), "compute time");
        if (phase.seconds == 0.0) {
          fail(tokens[1].offset, "compute time must be > 0, got " +
                                     std::string(tokens[1].text));
        }
        rejectTrailing(tokens, 2);
        job.phases.push_back(phase);
      } else if (keyword.text == "comm") {
        TracePhase phase;
        phase.kind = TracePhase::Kind::kComm;
        phase.messages = parseCount<std::int64_t>(
            expectArg(tokens, 1, "a message count"), 1, "message count");
        phase.words = parseCount<Words>(
            expectArg(tokens, 2, "words per message"), 1,
            "words per message");
        rejectTrailing(tokens, 3);
        job.phases.push_back(phase);
      } else if (keyword.text == "io") {
        TracePhase phase;
        phase.kind = TracePhase::Kind::kIo;
        phase.ops = parseCount<std::int64_t>(
            expectArg(tokens, 1, "a disk op count"), 1, "disk op count");
        phase.bytes = parseCount<std::int64_t>(
            expectArg(tokens, 2, "total bytes"), 0, "total bytes");
        const Token& rw = expectArg(tokens, 3, "a direction (r, w, or rw)");
        if (rw.text == "r") {
          phase.direction = IoDirection::kRead;
        } else if (rw.text == "w") {
          phase.direction = IoDirection::kWrite;
        } else if (rw.text == "rw") {
          phase.direction = IoDirection::kReadWrite;
        } else {
          fail(rw.offset, "direction must be r, w, or rw; got '" +
                              std::string(rw.text) + "'");
        }
        rejectTrailing(tokens, 4);
        job.phases.push_back(phase);
      } else {
        fail(keyword.offset,
             "unknown keyword '" + std::string(keyword.text) + "'");
      }
    }
    if (job.phases.empty()) {
      fail(nameToken.offset, "job '" + job.name + "' has no phases");
    }
    return job;
  }

  // ---- errors -------------------------------------------------------------

  [[noreturn]] void fail(std::size_t offset, const std::string& message) const {
    int line = 1;
    int column = 1;
    const std::size_t clamped = std::min(offset, text_.size());
    for (std::size_t i = 0; i < clamped; ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream out;
    out << name_ << ":" << line << ":" << column << " (byte " << offset
        << "): " << message;
    throw TraceError(out.str(), offset, line, column);
  }

  std::string_view text_;
  std::string name_;
  std::size_t pos_ = 0;
};

/// Shortest round-trip formatting, matching the wire-protocol convention.
std::string formatDouble(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

const char* ioDirectionName(IoDirection direction) {
  switch (direction) {
    case IoDirection::kRead: return "r";
    case IoDirection::kWrite: return "w";
    case IoDirection::kReadWrite: return "rw";
  }
  return "?";
}

std::vector<std::string> JobTrace::classNames() const {
  std::vector<std::string> names;
  for (const TraceJob& job : jobs) {
    if (std::find(names.begin(), names.end(), job.className) == names.end()) {
      names.push_back(job.className);
    }
  }
  return names;
}

JobTrace parseTrace(std::string_view text, std::string name) {
  return Parser(text, std::move(name)).parse();
}

JobTrace parseTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string name = path;
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const auto dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return parseTrace(buffer.str(), std::move(name));
}

std::string writeTrace(const JobTrace& trace) {
  std::string out = "# contend job trace\n";
  for (const TraceJob& job : trace.jobs) {
    out += "job " + job.name + "\n";
    if (job.className != job.name) {
      out += "  class " + job.className + "\n";
    }
    if (job.arriveSec != 0.0) {
      out += "  arrive " + formatDouble(job.arriveSec) + "\n";
    }
    for (const TracePhase& phase : job.phases) {
      switch (phase.kind) {
        case TracePhase::Kind::kCompute:
          out += "  compute " + formatDouble(phase.seconds) + "\n";
          break;
        case TracePhase::Kind::kComm:
          out += "  comm " + std::to_string(phase.messages) + ' ' +
                 std::to_string(phase.words) + "\n";
          break;
        case TracePhase::Kind::kIo:
          out += "  io " + std::to_string(phase.ops) + ' ' +
                 std::to_string(phase.bytes) + ' ' +
                 ioDirectionName(phase.direction) + "\n";
          break;
      }
    }
    out += "end\n";
  }
  return out;
}

double TraceCostModel::commPhaseSec(const TracePhase& phase) const {
  return static_cast<double>(phase.messages) *
         (commAlphaSec +
          static_cast<double>(phase.words) / commBetaWordsPerSec);
}

double TraceCostModel::ioPhaseSec(const TracePhase& phase) const {
  const double words =
      std::ceil(static_cast<double>(phase.bytes) / bytesPerWord);
  return static_cast<double>(phase.ops) * ioOpSec + words * ioWordSec;
}

std::vector<JobProfile> profileTrace(const JobTrace& trace,
                                     const TraceCostModel& cost) {
  std::vector<JobProfile> profiles;
  profiles.reserve(trace.jobs.size());
  for (const TraceJob& job : trace.jobs) {
    JobProfile profile;
    profile.name = job.name;
    profile.className = job.className;
    profile.arriveSec = job.arriveSec;
    double computeSec = 0.0;
    double commSec = 0.0;
    double ioSec = 0.0;
    for (const TracePhase& phase : job.phases) {
      switch (phase.kind) {
        case TracePhase::Kind::kCompute:
          computeSec += phase.seconds;
          break;
        case TracePhase::Kind::kComm:
          commSec += cost.commPhaseSec(phase);
          profile.messageWords = std::max(profile.messageWords, phase.words);
          break;
        case TracePhase::Kind::kIo:
          ioSec += cost.ioPhaseSec(phase);
          profile.ioOps += phase.ops;
          profile.ioWords += static_cast<std::int64_t>(
              std::ceil(static_cast<double>(phase.bytes) /
                        cost.bytesPerWord));
          break;
      }
    }
    profile.dedicatedSec = computeSec + commSec + ioSec;
    if (profile.dedicatedSec <= 0.0) {
      throw std::invalid_argument("profileTrace: job '" + job.name +
                                  "' reduces to zero dedicated time");
    }
    profile.commFraction = commSec / profile.dedicatedSec;
    profile.ioFraction = ioSec / profile.dedicatedSec;
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace contend::trace
