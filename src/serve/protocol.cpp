#include "serve/protocol.hpp"

#include <array>
#include <charconv>

#include "util/tokens.hpp"

namespace contend::serve {

namespace {

using util::TokenCursor;

constexpr std::array<const char*, kVerbCount> kVerbNames = {
    "ARRIVE", "DEPART", "PREDICT", "SLOWDOWN",  "STATS", "PREDICT_BATCH",
    "HEALTH", "METRICS", "CALIBRATE", "DRIFT", "REPL"};

[[noreturn]] void fail(const std::string& message) {
  throw ProtocolError(message);
}

[[noreturn]] void fail(std::string_view code, const std::string& message) {
  throw ProtocolError(code, message);
}

void rejectTrailing(TokenCursor& cursor, std::string_view verb) {
  if (const auto extra = cursor.next()) {
    fail(std::string(verb) + ": trailing tokens: '" + std::string(*extra) +
         "'");
  }
}

/// Formats doubles with round-trip precision (requests carry measured
/// fractions; responses carry predictions operators compare across runs).
/// std::to_chars emits the shortest representation that parses back to the
/// same bits — and skips the iostream/locale machinery on the hot path.
std::string formatDouble(double value) {
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) fail("formatDouble: unrepresentable value");
  return std::string(buffer, ptr);
}

/// The `.workload` task body shared by PREDICT and PREDICT_BATCH payloads
/// (everything between the opening line and its `end`).
std::string formatTaskBody(const tools::TaskSpec& task) {
  std::string out = "front " + formatDouble(task.frontEndSec) + '\n';
  out += "back " + formatDouble(task.backEndSec) + '\n';
  // Emitted only when present so pre-I/O payloads keep their exact bytes.
  if (task.ioFraction > 0.0 || task.ioOps > 0) {
    out += "io " + formatDouble(task.ioFraction) + ' ' +
           std::to_string(task.ioOps) + '\n';
  }
  for (const model::DataSet& set : task.toBackend) {
    out += "to_backend " + std::to_string(set.messages) + " x " +
           std::to_string(set.words) + '\n';
  }
  for (const model::DataSet& set : task.fromBackend) {
    out += "from_backend " + std::to_string(set.messages) + " x " +
           std::to_string(set.words) + '\n';
  }
  return out;
}

Request parseArrive(TokenCursor& line) {
  Request request;
  request.verb = Verb::kArrive;
  const auto fraction = line.next();
  const auto words = line.next();
  if (!fraction || !words ||
      !util::parseDouble(*fraction, request.app.commFraction) ||
      !util::parseInteger(*words, request.app.messageWords)) {
    fail("ARRIVE: expected '<commFraction> <messageWords>'");
  }
  if (request.app.commFraction < 0.0 || request.app.commFraction > 1.0) {
    fail("ARRIVE: comm fraction outside [0, 1]");
  }
  if (request.app.messageWords < 0) {
    fail("ARRIVE: message words must be non-negative");
  }
  if (request.app.commFraction > 0.0 && request.app.messageWords <= 0) {
    fail("ARRIVE: communicating application needs a message size");
  }
  // Optional I/O suffix: `ARRIVE <f> <words> io <g> <ops>`.
  if (const auto io = line.next()) {
    if (*io != "io") {
      fail("ARRIVE: expected 'io <fraction> <ops>' after message words");
    }
    const auto ioFraction = line.next();
    const auto ioOps = line.next();
    if (!ioFraction || !ioOps ||
        !util::parseDouble(*ioFraction, request.app.ioFraction) ||
        !util::parseInteger(*ioOps, request.app.ioOps)) {
      fail("ARRIVE: expected 'io <fraction> <ops>'");
    }
    if (request.app.ioFraction < 0.0 || request.app.ioFraction > 1.0) {
      fail("ARRIVE: io fraction outside [0, 1]");
    }
    if (request.app.commFraction + request.app.ioFraction > 1.0) {
      fail("ARRIVE: comm + io fractions exceed 1");
    }
    if (request.app.ioOps < 0) {
      fail("ARRIVE: io ops must be non-negative");
    }
    if (request.app.ioFraction > 0.0 && request.app.ioOps <= 0) {
      fail("ARRIVE: I/O-doing application needs an op count");
    }
    rejectTrailing(line, "ARRIVE");
  }
  return request;
}

Request parseDepart(TokenCursor& line) {
  Request request;
  request.verb = Verb::kDepart;
  const auto token = line.next();
  if (!token) fail("DEPART: expected '<applicationId>'");
  const char* first = token->data();
  const char* last = token->data() + token->size();
  const auto [ptr, ec] =
      std::from_chars(first, last, request.applicationId);
  if (ec != std::errc{} || ptr != last) {
    fail("DEPART: bad application id '" + std::string(*token) + "'");
  }
  rejectTrailing(line, "DEPART");
  return request;
}

Request parseCalibrate(TokenCursor& line) {
  Request request;
  request.verb = Verb::kCalibrate;
  const auto sub = line.next();
  if (!sub) {
    request.calibrate = CalibrateAction::kReport;
    return request;
  }
  if (*sub == "APPLY") {
    request.calibrate = CalibrateAction::kApply;
    rejectTrailing(line, "CALIBRATE APPLY");
    return request;
  }
  if (*sub != "OBSERVE") {
    fail("CALIBRATE: expected no arguments, 'APPLY', or 'OBSERVE ...', got '" +
         std::string(*sub) + "'");
  }
  request.calibrate = CalibrateAction::kObserve;
  const auto familyToken = line.next();
  const auto contendersToken = line.next();
  const auto wordsToken = line.next();
  const auto valueToken = line.next();
  if (!familyToken || !contendersToken || !wordsToken || !valueToken) {
    fail(
        "CALIBRATE OBSERVE: expected "
        "'<family> <contenders> <words> <value>'");
  }
  const auto family = observationFamilyFromName(*familyToken);
  if (!family) {
    fail("CALIBRATE OBSERVE: unknown family '" + std::string(*familyToken) +
         "'");
  }
  request.observation.family = *family;
  std::int64_t contenders = 0;
  if (!util::parseInteger(*contendersToken, contenders) || contenders < 0 ||
      contenders > 1'000'000) {
    fail("CALIBRATE OBSERVE: bad contender count '" +
         std::string(*contendersToken) + "'");
  }
  request.observation.contenders = static_cast<int>(contenders);
  if (!util::parseInteger(*wordsToken, request.observation.words) ||
      request.observation.words < 0) {
    fail("CALIBRATE OBSERVE: bad message words '" + std::string(*wordsToken) +
         "'");
  }
  if (!util::parseDouble(*valueToken, request.observation.value) ||
      !(request.observation.value >= 0.0)) {
    fail("CALIBRATE OBSERVE: bad value '" + std::string(*valueToken) + "'");
  }
  rejectTrailing(line, "CALIBRATE OBSERVE");
  return request;
}

std::uint64_t parseReplU64(TokenCursor& line, std::string_view what) {
  const auto token = line.next();
  if (!token) fail("REPL: expected " + std::string(what));
  std::uint64_t value = 0;
  const char* first = token->data();
  const char* last = token->data() + token->size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    fail("REPL: bad " + std::string(what) + " '" + std::string(*token) + "'");
  }
  return value;
}

Request parseRepl(TokenCursor& line) {
  Request request;
  request.verb = Verb::kRepl;
  const auto sub = line.next();
  if (!sub) {
    fail("REPL: expected HELLO, STATUS, SINCE, ACK, SNAPSHOT, or PROMOTE");
  }
  if (*sub == "HELLO") {
    request.repl = ReplAction::kHello;
    rejectTrailing(line, "REPL HELLO");
  } else if (*sub == "STATUS") {
    request.repl = ReplAction::kStatus;
    rejectTrailing(line, "REPL STATUS");
  } else if (*sub == "PROMOTE") {
    request.repl = ReplAction::kPromote;
    rejectTrailing(line, "REPL PROMOTE");
  } else if (*sub == "ACK") {
    request.repl = ReplAction::kAck;
    request.replEpoch = parseReplU64(line, "ack epoch");
    rejectTrailing(line, "REPL ACK");
  } else if (*sub == "SNAPSHOT") {
    request.repl = ReplAction::kSnapshot;
    request.replOffset = parseReplU64(line, "snapshot offset");
    rejectTrailing(line, "REPL SNAPSHOT");
  } else if (*sub == "SINCE") {
    request.repl = ReplAction::kSince;
    request.replEpoch = parseReplU64(line, "since epoch");
    if (const auto maxToken = line.next()) {
      std::uint64_t max = 0;
      const char* first = maxToken->data();
      const char* last = maxToken->data() + maxToken->size();
      const auto [ptr, ec] = std::from_chars(first, last, max);
      if (ec != std::errc{} || ptr != last || max == 0 ||
          max > kReplMaxFrames) {
        fail("REPL SINCE: max frames must be in [1, " +
             std::to_string(kReplMaxFrames) + "], got '" +
             std::string(*maxToken) + "'");
      }
      request.replMax = max;
      rejectTrailing(line, "REPL SINCE");
    }
  } else {
    fail("REPL: unknown subcommand '" + std::string(*sub) + "'");
  }
  return request;
}

/// Walks '\n'-terminated lines of a view without copying; strips one
/// trailing '\r' per line (CRLF peers), mirroring FdLineReader.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  std::optional<std::string_view> next() {
    if (rest_.empty()) return std::nullopt;
    const std::size_t nl = rest_.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? rest_ : rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  }

 private:
  std::string_view rest_;
};

Request parsePredictView(TokenCursor& firstLine, LineCursor& lines) {
  Request request;
  request.verb = Verb::kPredict;
  const auto nameToken = firstLine.next();
  const std::string name =
      nameToken ? std::string(*nameToken) : std::string("task");
  rejectTrailing(firstLine, "PREDICT");

  // Two phases: first collect the block up to its `end` (so an unterminated
  // block reports block_unterminated even if an earlier line is also
  // malformed), then reuse the workload-file parser so PREDICT payloads stay
  // byte-compatible with `.workload` task bodies, error messages included.
  std::vector<std::string_view> block;
  bool closed = false;
  for (int count = 0; count < kMaxPredictBlockLines; ++count) {
    const auto raw = lines.next();
    if (!raw) break;
    block.push_back(*raw);
    if (util::firstToken(*raw) == "end") {
      closed = true;
      break;
    }
  }
  if (!closed) {
    fail(kErrBlockUnterminated,
         "PREDICT: block not closed with 'end' within " +
             std::to_string(kMaxPredictBlockLines) + " lines");
  }
  tools::WorkloadFile parsed;
  try {
    tools::WorkloadParser parser;
    // The synthesized `task <name>` header is line 1 of the block, so
    // workload-parser line numbers count the verb line.
    parser.feedLine("task " + name);
    for (const std::string_view line : block) parser.feedLine(line);
    parsed = parser.finish();
  } catch (const std::runtime_error& error) {
    fail(std::string("PREDICT: ") + error.what());
  }
  request.task = std::move(parsed.tasks.at(0));
  return request;
}

Request parsePredictBatchView(TokenCursor& firstLine, LineCursor& lines) {
  Request request;
  request.verb = Verb::kPredictBatch;
  rejectTrailing(firstLine, "PREDICT_BATCH");

  // Collect everything up to `end_batch`; the payload is one or more full
  // `task <name> ... end` blocks in workload syntax, so the whole batch goes
  // through the workload-file parser in one pass.
  std::vector<std::string_view> block;
  bool closed = false;
  for (int count = 0; count < kMaxBatchBlockLines; ++count) {
    const auto raw = lines.next();
    if (!raw) break;
    if (util::firstToken(*raw) == "end_batch") {
      closed = true;
      break;
    }
    block.push_back(*raw);
  }
  if (!closed) {
    fail(kErrBlockUnterminated,
         "PREDICT_BATCH: block not closed with 'end_batch' within " +
             std::to_string(kMaxBatchBlockLines) + " lines");
  }
  tools::WorkloadFile parsed;
  try {
    tools::WorkloadParser parser;
    for (const std::string_view line : block) parser.feedLine(line);
    parsed = parser.finish();
  } catch (const std::runtime_error& error) {
    fail(std::string("PREDICT_BATCH: ") + error.what());
  }
  if (!parsed.competitors.empty()) {
    fail("PREDICT_BATCH: competitor lines are not allowed in a batch");
  }
  if (parsed.tasks.empty()) {
    fail(kErrEmptyBatch, "PREDICT_BATCH: batch contains no tasks");
  }
  request.batch = std::move(parsed.tasks);
  return request;
}

}  // namespace

const char* verbName(Verb verb) {
  return kVerbNames[static_cast<int>(verb)];
}

std::optional<Verb> verbFromName(std::string_view name) {
  for (int i = 0; i < kVerbCount; ++i) {
    if (name == kVerbNames[i]) return static_cast<Verb>(i);
  }
  return std::nullopt;
}

std::optional<Request> parseRequestText(std::string_view text) {
  LineCursor lines(text);
  while (const auto raw = lines.next()) {
    TokenCursor line(util::stripLineComment(*raw));
    const auto verbToken = line.next();
    if (!verbToken) continue;  // blank / comment-only

    const auto verb = verbFromName(*verbToken);
    if (!verb) {
      fail(kErrBadVerb, "unknown verb '" + std::string(*verbToken) + "'");
    }
    switch (*verb) {
      case Verb::kArrive:
        return parseArrive(line);
      case Verb::kDepart:
        return parseDepart(line);
      case Verb::kPredict:
        return parsePredictView(line, lines);
      case Verb::kPredictBatch:
        return parsePredictBatchView(line, lines);
      case Verb::kCalibrate:
        return parseCalibrate(line);
      case Verb::kRepl:
        return parseRepl(line);
      case Verb::kSlowdown:
      case Verb::kStats:
      case Verb::kHealth:
      case Verb::kMetrics:
      case Verb::kDrift: {
        rejectTrailing(line, *verbToken);
        Request request;
        request.verb = *verb;
        return request;
      }
    }
  }
  return std::nullopt;
}

std::string formatRequest(const Request& request) {
  switch (request.verb) {
    case Verb::kArrive: {
      std::string out = "ARRIVE " + formatDouble(request.app.commFraction) +
                        ' ' + std::to_string(request.app.messageWords);
      if (request.app.ioFraction > 0.0 || request.app.ioOps > 0) {
        out += " io " + formatDouble(request.app.ioFraction) + ' ' +
               std::to_string(request.app.ioOps);
      }
      out += '\n';
      return out;
    }
    case Verb::kDepart:
      return "DEPART " + std::to_string(request.applicationId) + '\n';
    case Verb::kSlowdown:
      return "SLOWDOWN\n";
    case Verb::kStats:
      return "STATS\n";
    case Verb::kHealth:
      return "HEALTH\n";
    case Verb::kMetrics:
      return "METRICS\n";
    case Verb::kDrift:
      return "DRIFT\n";
    case Verb::kCalibrate:
      switch (request.calibrate) {
        case CalibrateAction::kReport:
          return "CALIBRATE\n";
        case CalibrateAction::kApply:
          return "CALIBRATE APPLY\n";
        case CalibrateAction::kObserve:
          return std::string("CALIBRATE OBSERVE ") +
                 observationFamilyName(request.observation.family) + ' ' +
                 std::to_string(request.observation.contenders) + ' ' +
                 std::to_string(request.observation.words) + ' ' +
                 formatDouble(request.observation.value) + '\n';
      }
      fail("formatRequest: invalid CALIBRATE action");
    case Verb::kRepl:
      switch (request.repl) {
        case ReplAction::kHello:
          return "REPL HELLO\n";
        case ReplAction::kStatus:
          return "REPL STATUS\n";
        case ReplAction::kPromote:
          return "REPL PROMOTE\n";
        case ReplAction::kAck:
          return "REPL ACK " + std::to_string(request.replEpoch) + '\n';
        case ReplAction::kSnapshot:
          return "REPL SNAPSHOT " + std::to_string(request.replOffset) + '\n';
        case ReplAction::kSince:
          return "REPL SINCE " + std::to_string(request.replEpoch) + ' ' +
                 std::to_string(request.replMax) + '\n';
      }
      fail("formatRequest: invalid REPL action");
    case Verb::kPredict: {
      const tools::TaskSpec& task = request.task;
      std::string out =
          "PREDICT " + (task.name.empty() ? std::string("task") : task.name) +
          '\n';
      out += formatTaskBody(task);
      out += "end\n";
      return out;
    }
    case Verb::kPredictBatch: {
      if (request.batch.empty()) {
        fail("formatRequest: PREDICT_BATCH with no tasks");
      }
      std::string out = "PREDICT_BATCH\n";
      for (const tools::TaskSpec& task : request.batch) {
        out += "task " +
               (task.name.empty() ? std::string("task") : task.name) + '\n';
        out += formatTaskBody(task);
        out += "end\n";
      }
      out += "end_batch\n";
      return out;
    }
  }
  fail("formatRequest: invalid verb");
}

void Response::add(std::string key, std::string value) {
  fields.emplace_back(std::move(key), std::move(value));
}

void Response::add(std::string key, double value) {
  fields.emplace_back(std::move(key), formatDouble(value));
}

void Response::add(std::string key, std::uint64_t value) {
  fields.emplace_back(std::move(key), std::to_string(value));
}

const std::string* Response::find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Response::number(std::string_view key) const {
  const std::string* value = find(key);
  if (!value) fail("response missing field '" + std::string(key) + "'");
  double parsed = 0.0;
  if (!util::parseDouble(*value, parsed)) {
    fail("response field '" + std::string(key) + "' is not numeric: '" +
         *value + "'");
  }
  return parsed;
}

std::string formatResponse(const Response& response) {
  if (!response.ok) {
    // `ERR <code> <message>` — the code is one machine-readable token, the
    // message is free-form. A code was not always set historically, so an
    // unset one degrades to the generic "error".
    std::string line = "ERR ";
    line += response.code.empty() ? std::string("error") : response.code;
    line += ' ';
    line += response.error.empty() ? "unspecified error" : response.error;
    // The wire format is line-based; keep the whole reply on one line, and
    // keep the code one token.
    for (char& c : line) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    return line;
  }
  // One pass with a precomputed size: this line is written verbatim to the
  // socket, so avoid the quadratic-append and intermediate copies.
  std::size_t length = 2;
  for (const auto& [key, value] : response.fields) {
    length += 2 + key.size() + value.size();
  }
  std::string out;
  out.reserve(length);
  out += "OK";
  for (const auto& [key, value] : response.fields) {
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string errorLine(std::string_view code, std::string message) {
  Response response;
  response.ok = false;
  response.code = std::string(code);
  response.error = std::move(message);
  return formatResponse(response) + '\n';
}

Response parseResponse(const std::string& line) {
  TokenCursor cursor(line);
  const auto status = cursor.next();
  if (!status) fail("empty response line");
  Response response;
  if (*status == "ERR") {
    response.ok = false;
    // First token after ERR is the machine-readable code; the rest of the
    // line (trimmed of leading whitespace) is the human-readable message.
    if (const auto codeToken = cursor.next()) {
      response.code = std::string(*codeToken);
      const auto codeEnd =
          static_cast<std::size_t>(codeToken->data() - line.data()) +
          codeToken->size();
      const auto start = line.find_first_not_of(util::kTokenSpace, codeEnd);
      response.error = start == std::string::npos ? response.code
                                                  : line.substr(start);
    }
    return response;
  }
  if (*status != "OK") {
    fail("bad response status '" + std::string(*status) + "'");
  }
  while (const auto token = cursor.next()) {
    const auto eq = token->find('=');
    if (eq == std::string_view::npos || eq == 0) {
      fail("bad response field '" + std::string(*token) + "'");
    }
    response.fields.emplace_back(std::string(token->substr(0, eq)),
                                 std::string(token->substr(eq + 1)));
  }
  return response;
}

}  // namespace contend::serve
