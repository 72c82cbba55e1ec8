#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/tokens.hpp"

namespace contend::scenario {

namespace {

/// Lowercases and collapses runs of whitespace to single spaces, so the key
/// "Number  Of Machines" matches "number of machines".
std::string canonicalKey(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  bool pendingSpace = false;
  for (const char c : key) {
    if (util::isTokenSpace(c)) {
      pendingSpace = !out.empty();
      continue;
    }
    if (pendingSpace) {
      out.push_back(' ');
      pendingSpace = false;
    }
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

/// Tracks one block field: whether it appeared and where its value started
/// (byte offset), for duplicate detection and cross-field error positions.
struct FieldSlot {
  bool seen = false;
  std::size_t keyOffset = 0;
  std::size_t valueOffset = 0;
};

class Parser {
 public:
  Parser(std::string_view text, std::string name)
      : text_(text), name_(std::move(name)) {}

  Scenario parse() {
    Scenario scenario;
    scenario.name = name_;
    Line line;
    while (nextContentLine(line)) {
      const std::string_view head = util::trimSpace(line.content);
      const std::size_t headOffset = line.offset + contentIndent(line);
      if (matchHeader(head, "machine class")) {
        scenario.machineClasses.push_back(
            parseMachineBlock(headerHasBrace(head), headOffset,
                              scenario.machineClasses.size()));
      } else if (matchHeader(head, "task class")) {
        scenario.taskClasses.push_back(
            parseTaskBlock(headerHasBrace(head), headOffset,
                           scenario.taskClasses.size()));
      } else {
        fail(headOffset,
             "expected 'machine class:' or 'task class:', got '" +
                 std::string(firstWord(head)) + "'");
      }
    }
    if (scenario.machineClasses.empty()) {
      fail(text_.size(), "scenario defines no machine class");
    }
    if (scenario.taskClasses.empty()) {
      fail(text_.size(), "scenario defines no task class");
    }
    return scenario;
  }

 private:
  struct Line {
    std::string_view raw;      // without trailing '\n', comment NOT stripped
    std::string_view content;  // comment stripped
    std::size_t offset = 0;    // byte offset of the line start
  };

  // ---- line scanning ------------------------------------------------------

  /// Advances to the next line that has content after comment stripping.
  bool nextContentLine(Line& out) {
    while (pos_ <= text_.size()) {
      if (pos_ == text_.size()) return false;
      const std::size_t lineStart = pos_;
      const std::size_t newline = text_.find('\n', pos_);
      const std::size_t lineEnd =
          newline == std::string_view::npos ? text_.size() : newline;
      pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
      const std::string_view raw =
          text_.substr(lineStart, lineEnd - lineStart);
      const std::string_view content = util::stripLineComment(raw);
      if (util::trimSpace(content).empty()) continue;
      out = Line{raw, content, lineStart};
      return true;
    }
    return false;
  }

  static std::size_t contentIndent(const Line& line) {
    const std::size_t first = util::skipSpace(line.content, 0);
    return first == line.content.size() ? 0 : first;
  }

  static std::string_view firstWord(std::string_view s) {
    return s.substr(0, util::skipToken(s, 0));
  }

  // ---- header / brace handling -------------------------------------------

  /// True when `head` is "<what>:" optionally followed by "{".
  static bool matchHeader(std::string_view head, std::string_view what) {
    std::string_view body = head;
    if (!body.empty() && body.back() == '{') {
      body = util::trimSpace(body.substr(0, body.size() - 1));
    }
    if (body.empty() || body.back() != ':') return false;
    return canonicalKey(body.substr(0, body.size() - 1)) == what;
  }

  static bool headerHasBrace(std::string_view head) {
    return !head.empty() && head.back() == '{';
  }

  /// Consumes the '{' line when the header did not carry it.
  void expectOpenBrace(bool braceOnHeader) {
    if (braceOnHeader) return;
    Line line;
    if (!nextContentLine(line)) {
      fail(text_.size(), "expected '{' to open the block, got end of input");
    }
    const std::string_view head = util::trimSpace(line.content);
    if (head != "{") {
      fail(line.offset + contentIndent(line),
           "expected '{' to open the block, got '" +
               std::string(firstWord(head)) + "'");
    }
  }

  // ---- key: value fields --------------------------------------------------

  struct Field {
    std::string key;          // canonical
    std::string_view value;   // trimmed
    std::size_t keyOffset = 0;
    std::size_t valueOffset = 0;
  };

  /// Reads the next field line, or returns nullopt at the closing '}' (whose
  /// offset is stored in closeOffset_).
  std::optional<Field> nextField() {
    Line line;
    if (!nextContentLine(line)) {
      fail(text_.size(), "unterminated block: expected '}' before end of input");
    }
    const std::size_t indent = contentIndent(line);
    const std::string_view head = util::trimSpace(line.content);
    if (head == "}") {
      closeOffset_ = line.offset + indent;
      return std::nullopt;
    }
    const auto colon = line.content.find(':');
    if (colon == std::string_view::npos) {
      fail(line.offset + indent,
           "expected 'Key: value' or '}', got '" +
               std::string(firstWord(head)) + "'");
    }
    const std::string_view keyText =
        util::trimSpace(line.content.substr(0, colon));
    if (keyText.empty()) {
      fail(line.offset + indent, "empty key before ':'");
    }
    Field field;
    field.key = canonicalKey(keyText);
    field.keyOffset = line.offset + indent;
    const std::string_view after = line.content.substr(colon + 1);
    const std::size_t valueBegin = util::skipSpace(after, 0);
    if (valueBegin == after.size()) {
      fail(line.offset + colon, "missing value after ':'");
    }
    field.value = util::trimSpace(after);
    field.valueOffset = line.offset + colon + 1 + valueBegin;
    return field;
  }

  /// Marks a field seen, rejecting duplicates at the duplicate's position.
  void claim(FieldSlot& slot, const Field& field, const char* blockKind) {
    if (slot.seen) {
      fail(field.keyOffset, std::string(blockKind) + " repeats field '" +
                                field.key + "'");
    }
    slot.seen = true;
    slot.keyOffset = field.keyOffset;
    slot.valueOffset = field.valueOffset;
  }

  void requireField(const FieldSlot& slot, const char* blockKind,
                    const char* key) const {
    if (!slot.seen) {
      fail(closeOffset_, std::string(blockKind) + " is missing required field '" +
                             key + "'");
    }
  }

  // ---- value parsers (from_chars underneath, byte-accurate rejects) -------

  /// Values are single tokens; embedded whitespace is malformed.
  void requireSingleToken(const Field& field) const {
    if (util::skipToken(field.value, 0) != field.value.size()) {
      fail(field.valueOffset,
           "malformed value '" + std::string(field.value) + "'");
    }
  }

  template <typename Int>
  Int parseIntValue(const Field& field, Int minimum, const char* what) const {
    requireSingleToken(field);
    Int out{};
    if (!util::parseInteger(field.value, out)) {
      fail(field.valueOffset, std::string("malformed ") + what + " '" +
                                  std::string(field.value) + "'");
    }
    if (out < minimum) {
      fail(field.valueOffset, std::string(what) + " must be >= " +
                                  std::to_string(minimum) + ", got " +
                                  std::string(field.value));
    }
    return out;
  }

  double parseDoubleValue(const Field& field, double minimum, bool allowMin,
                          const char* what) const {
    requireSingleToken(field);
    double out = 0.0;
    if (!util::parseDouble(field.value, out) || !std::isfinite(out)) {
      fail(field.valueOffset, std::string("malformed ") + what + " '" +
                                  std::string(field.value) + "'");
    }
    if (out < minimum || (!allowMin && out == minimum)) {
      fail(field.valueOffset,
           std::string(what) + " must be " + (allowMin ? ">= " : "> ") +
               std::to_string(minimum) + ", got " + std::string(field.value));
    }
    return out;
  }

  std::string parseNameValue(const Field& field) const {
    requireSingleToken(field);
    return std::string(field.value);
  }

  // ---- blocks -------------------------------------------------------------

  MachineClass parseMachineBlock(bool braceOnHeader, std::size_t headerOffset,
                                 std::size_t index) {
    expectOpenBrace(braceOnHeader);
    constexpr const char* kKind = "machine class";
    MachineClass machine;
    machine.name = "machines" + std::to_string(index);
    FieldSlot count, cores, speed, alpha, beta, threshold, name;
    while (const auto field = nextField()) {
      if (field->key == "number of machines") {
        claim(count, *field, kKind);
        machine.count = parseIntValue<int>(*field, 1, "machine count");
      } else if (field->key == "number of cores") {
        claim(cores, *field, kKind);
        machine.cores = parseIntValue<int>(*field, 1, "core count");
      } else if (field->key == "speed") {
        claim(speed, *field, kKind);
        machine.speed = parseDoubleValue(*field, 0.0, false, "speed");
      } else if (field->key == "comm alpha") {
        claim(alpha, *field, kKind);
        machine.commAlphaSec =
            parseDoubleValue(*field, 0.0, true, "comm alpha");
      } else if (field->key == "comm beta") {
        claim(beta, *field, kKind);
        machine.commBetaWordsPerSec =
            parseDoubleValue(*field, 0.0, false, "comm beta");
      } else if (field->key == "comm threshold") {
        claim(threshold, *field, kKind);
        machine.commThresholdWords =
            parseIntValue<Words>(*field, 1, "comm threshold");
      } else if (field->key == "name") {
        claim(name, *field, kKind);
        machine.name = parseNameValue(*field);
      } else {
        fail(field->keyOffset,
             "machine class has no field '" + field->key + "'");
      }
    }
    requireField(count, kKind, "Number of machines");
    requireField(cores, kKind, "Number of cores");
    requireField(speed, kKind, "Speed");
    requireField(alpha, kKind, "Comm alpha");
    requireField(beta, kKind, "Comm beta");
    (void)headerOffset;
    return machine;
  }

  TaskClass parseTaskBlock(bool braceOnHeader, std::size_t headerOffset,
                           std::size_t index) {
    expectOpenBrace(braceOnHeader);
    constexpr const char* kKind = "task class";
    TaskClass task;
    task.name = "tasks" + std::to_string(index);
    FieldSlot start, end, inter, arrival, burst, runtime, fraction, words,
        ioFraction, ioOps, state, sla, seed, name, tracePath;
    while (const auto field = nextField()) {
      if (field->key == "start time") {
        claim(start, *field, kKind);
        task.startSec = parseDoubleValue(*field, 0.0, true, "start time");
      } else if (field->key == "end time") {
        claim(end, *field, kKind);
        task.endSec = parseDoubleValue(*field, 0.0, true, "end time");
      } else if (field->key == "inter arrival") {
        claim(inter, *field, kKind);
        task.interArrivalSec =
            parseDoubleValue(*field, 0.0, false, "inter arrival");
      } else if (field->key == "arrival") {
        claim(arrival, *field, kKind);
        requireSingleToken(*field);
        if (field->value == "fixed") {
          task.arrival = ArrivalProcess::kFixed;
        } else if (field->value == "poisson") {
          task.arrival = ArrivalProcess::kPoisson;
        } else if (field->value == "burst") {
          task.arrival = ArrivalProcess::kBurst;
        } else {
          fail(field->valueOffset, "arrival must be fixed, poisson, or burst; got '" +
                                       std::string(field->value) + "'");
        }
      } else if (field->key == "burst size") {
        claim(burst, *field, kKind);
        task.burstSize = parseIntValue<int>(*field, 2, "burst size");
      } else if (field->key == "expected runtime") {
        claim(runtime, *field, kKind);
        task.runtimeSec =
            parseDoubleValue(*field, 0.0, false, "expected runtime");
      } else if (field->key == "comm fraction") {
        claim(fraction, *field, kKind);
        task.commFraction =
            parseDoubleValue(*field, 0.0, true, "comm fraction");
        if (task.commFraction > 1.0) {
          fail(field->valueOffset, "comm fraction must be <= 1, got " +
                                       std::string(field->value));
        }
      } else if (field->key == "message words") {
        claim(words, *field, kKind);
        task.messageWords = parseIntValue<Words>(*field, 0, "message words");
      } else if (field->key == "io fraction") {
        claim(ioFraction, *field, kKind);
        task.ioFraction = parseDoubleValue(*field, 0.0, true, "io fraction");
        if (task.ioFraction > 1.0) {
          fail(field->valueOffset, "io fraction must be <= 1, got " +
                                       std::string(field->value));
        }
      } else if (field->key == "io ops") {
        claim(ioOps, *field, kKind);
        task.ioOps = parseIntValue<std::int64_t>(*field, 0, "io ops");
      } else if (field->key == "trace") {
        claim(tracePath, *field, kKind);
        task.tracePath = parseNameValue(*field);
      } else if (field->key == "state words") {
        claim(state, *field, kKind);
        task.stateWords = parseIntValue<Words>(*field, 0, "state words");
      } else if (field->key == "sla type") {
        claim(sla, *field, kKind);
        requireSingleToken(*field);
        const auto tier = slaTierFromName(field->value);
        if (!tier) {
          fail(field->valueOffset, "SLA type must be SLA0..SLA3, got '" +
                                       std::string(field->value) + "'");
        }
        task.sla = *tier;
      } else if (field->key == "seed") {
        claim(seed, *field, kKind);
        task.seed = parseIntValue<std::uint64_t>(*field, 0, "seed");
      } else if (field->key == "name") {
        claim(name, *field, kKind);
        task.name = parseNameValue(*field);
      } else {
        fail(field->keyOffset, "task class has no field '" + field->key + "'");
      }
    }
    if (tracePath.seen) {
      // A trace class takes its runtimes, fractions, and arrival times from
      // the trace; the statistical fields would be silently ignored, so any
      // of them present is a hard reject at the offending field.
      const struct { const FieldSlot* slot; const char* key; } forbidden[] = {
          {&start, "Start time"},       {&end, "End time"},
          {&inter, "Inter arrival"},    {&arrival, "Arrival"},
          {&burst, "Burst size"},       {&runtime, "Expected runtime"},
          {&fraction, "Comm fraction"}, {&words, "Message words"},
          {&ioFraction, "Io fraction"}, {&ioOps, "Io ops"},
          {&seed, "Seed"},
      };
      for (const auto& entry : forbidden) {
        if (entry.slot->seen) {
          fail(entry.slot->keyOffset,
               std::string("task class with 'Trace' must not set '") +
                   entry.key + "'");
        }
      }
    } else {
      requireField(start, kKind, "Start time");
      requireField(end, kKind, "End time");
      requireField(inter, kKind, "Inter arrival");
      requireField(runtime, kKind, "Expected runtime");
      requireField(sla, kKind, "SLA type");
      requireField(seed, kKind, "Seed");
      if (task.endSec <= task.startSec) {
        fail(end.valueOffset, "end time must be after start time");
      }
      if (burst.seen && task.arrival != ArrivalProcess::kBurst) {
        fail(burst.valueOffset, "burst size requires 'Arrival: burst'");
      }
      if (task.commFraction + task.ioFraction > 1.0) {
        fail((ioFraction.seen ? ioFraction : fraction).valueOffset,
             "comm fraction + io fraction must be <= 1");
      }
      if (task.ioFraction > 0.0 && task.ioOps <= 0) {
        fail(ioFraction.valueOffset,
             "io fraction > 0 requires 'Io ops' >= 1");
      }
    }
    if (!state.seen) task.stateWords = 4 * task.messageWords;
    (void)headerOffset;
    return task;
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
    throw ScenarioError(out.str(), offset, line, column);
  }

  std::string_view text_;
  std::string name_;
  std::size_t pos_ = 0;
  std::size_t closeOffset_ = 0;  // offset of the most recent '}'
};

}  // namespace

const char* slaTierName(SlaTier tier) {
  switch (tier) {
    case SlaTier::kSla0: return "SLA0";
    case SlaTier::kSla1: return "SLA1";
    case SlaTier::kSla2: return "SLA2";
    case SlaTier::kSla3: return "SLA3";
  }
  return "SLA?";
}

std::optional<SlaTier> slaTierFromName(std::string_view name) {
  if (name == "SLA0") return SlaTier::kSla0;
  if (name == "SLA1") return SlaTier::kSla1;
  if (name == "SLA2") return SlaTier::kSla2;
  if (name == "SLA3") return SlaTier::kSla3;
  return std::nullopt;
}

const char* arrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kFixed: return "fixed";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBurst: return "burst";
  }
  return "?";
}

int Scenario::totalMachines() const {
  int total = 0;
  for (const MachineClass& mc : machineClasses) total += mc.count;
  return total;
}

int Scenario::totalCores() const {
  int total = 0;
  for (const MachineClass& mc : machineClasses) total += mc.count * mc.cores;
  return total;
}

double Scenario::maxSpeed() const {
  double best = 0.0;
  for (const MachineClass& mc : machineClasses) best = std::max(best, mc.speed);
  return best;
}

Scenario parseScenario(std::string_view text, std::string name) {
  return Parser(text, std::move(name)).parse();
}

Scenario parseScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open scenario file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string name = path;
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const auto dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  Scenario scenario = parseScenario(buffer.str(), std::move(name));
  // Trace paths are written relative to the scenario file's directory, so a
  // scenario bundle stays relocatable.
  const auto dirEnd = path.find_last_of('/');
  if (dirEnd != std::string::npos) {
    const std::string dir = path.substr(0, dirEnd + 1);
    for (TaskClass& tc : scenario.taskClasses) {
      if (!tc.tracePath.empty() && tc.tracePath.front() != '/') {
        tc.tracePath = dir + tc.tracePath;
      }
    }
  }
  return scenario;
}

ArrivalSequence::ArrivalSequence(const TaskClass& taskClass)
    : taskClass_(taskClass), rng_(taskClass.seed) {}

std::optional<double> ArrivalSequence::next() {
  if (done_) return std::nullopt;
  const TaskClass& tc = taskClass_;
  if (tc.arrival == ArrivalProcess::kBurst) {
    if (first_) {
      first_ = false;
      nextSec_ = tc.startSec;
      emittedInBurst_ = 0;
    } else if (emittedInBurst_ >= tc.burstSize) {
      const double mean = tc.interArrivalSec * tc.burstSize;
      nextSec_ += -mean * std::log1p(-rng_.nextDouble());
      emittedInBurst_ = 0;
    }
    if (nextSec_ >= tc.endSec) {
      done_ = true;
      return std::nullopt;
    }
    ++emittedInBurst_;
    return nextSec_;
  }
  if (first_) {
    first_ = false;
    nextSec_ = tc.startSec;
    if (tc.arrival == ArrivalProcess::kPoisson) {
      nextSec_ += -tc.interArrivalSec * std::log1p(-rng_.nextDouble());
    }
  } else if (tc.arrival == ArrivalProcess::kPoisson) {
    nextSec_ += -tc.interArrivalSec * std::log1p(-rng_.nextDouble());
  } else {
    nextSec_ += tc.interArrivalSec;
  }
  if (nextSec_ >= tc.endSec) {
    done_ = true;
    return std::nullopt;
  }
  return nextSec_;
}

}  // namespace contend::scenario
