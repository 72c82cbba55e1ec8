// protocol.hpp — the contend-serve wire protocol.
//
// Line-based text, one request per line, except PREDICT which carries a task
// block in the `.workload` task syntax (see tools/workload_file.hpp) and is
// terminated by an `end` line, and PREDICT_BATCH which carries one or more
// full `task ... end` blocks and is terminated by an `end_batch` line:
//
//     ARRIVE <commFraction> <messageWords> [io <ioFraction> <ioOps>]
//     DEPART <applicationId>
//     SLOWDOWN
//     STATS
//     HEALTH
//     METRICS
//     CALIBRATE [OBSERVE <family> <contenders> <words> <value> | APPLY]
//     DRIFT
//     REPL [HELLO | STATUS | PROMOTE | SINCE <epoch> [<max>] |
//           ACK <epoch> | SNAPSHOT <offset>]
//     PREDICT <name>
//       front 8.0
//       back  1.5
//       to_backend   512 x 512
//       from_backend 512 x 512
//     end
//     PREDICT_BATCH
//     task solver
//       front 8.0
//       back  1.5
//     end
//     task tiny
//       front 1.0
//       back  0.2
//     end
//     end_batch
//
// Blank lines and `#` comments between requests are ignored (same convention
// as workload files). Every response is a single line — except METRICS,
// which answers with a multi-line Prometheus text exposition terminated by a
// `# EOF` line (see docs/SERVING.md, "Observability"; the server appends
// the exposition verbatim and the client reads through the terminator).
// All other responses are `OK key=value ...` or
// `ERR <code> <message>`, where <code> is a stable machine-readable token
// (see kErr* below) and the rest of the line is a human-readable message; a
// PREDICT_BATCH response carries the per-task results as indexed fields
// (`name.0=... front.0=... name.1=...`) so the whole batch is answered in
// one write. Field order is stable so responses are diff-able; clients
// should nevertheless look fields up by key.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/mix.hpp"
#include "serve/recalibration.hpp"
#include "tools/workload_file.hpp"

namespace contend::serve {

// Appended only: verb indices feed fixed-size metrics arrays and persisted
// expositions, so existing entries never renumber.
enum class Verb {
  kArrive,
  kDepart,
  kPredict,
  kSlowdown,
  kStats,
  kPredictBatch,
  kHealth,
  kMetrics,
  kCalibrate,
  kDrift,
  kRepl,
};
inline constexpr int kVerbCount = 11;

[[nodiscard]] const char* verbName(Verb verb);
[[nodiscard]] std::optional<Verb> verbFromName(std::string_view name);

/// Stable `ERR` codes. Machine-readable, append-only: clients branch on
/// these, so an existing code never changes meaning or spelling.
inline constexpr std::string_view kErrParse = "parse";
inline constexpr std::string_view kErrBadVerb = "bad_verb";
inline constexpr std::string_view kErrBlockUnterminated = "block_unterminated";
inline constexpr std::string_view kErrEmptyBatch = "empty_batch";
inline constexpr std::string_view kErrLineTooLong = "line_too_long";
inline constexpr std::string_view kErrDeadline = "deadline_exceeded";
inline constexpr std::string_view kErrOverloaded = "overloaded";
inline constexpr std::string_view kErrInvalidArgument = "invalid_argument";
inline constexpr std::string_view kErrInternal = "internal";
inline constexpr std::string_view kErrNotCaughtUp = "not_caught_up";
inline constexpr std::string_view kErrReadOnly = "read_only";

/// Thrown on any malformed request or response. The daemon turns these into
/// `ERR <code> <message>` lines instead of dropping the connection.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error(message), code_(kErrParse) {}
  ProtocolError(std::string_view code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  /// The stable machine-readable code (one of the kErr* tokens above).
  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// CALIBRATE subcommands (all single-line):
///
///     CALIBRATE                                     — staleness report
///     CALIBRATE OBSERVE <family> <contenders> <words> <value>
///     CALIBRATE APPLY                               — swap in built tables
///
/// where <family> is one of comm_from_comp, comm_from_comm, comp_from_comm,
/// link_to, link_from (see serve/recalibration.hpp for the value
/// conventions). DRIFT takes no arguments.
enum class CalibrateAction { kReport, kObserve, kApply };

/// REPL subcommands (all single-line; see docs/SERVING.md, "Clustering &
/// replication"):
///
///     REPL HELLO                — handshake: role, epoch, log floor
///     REPL STATUS               — role, epoch, lag, caught-up flag
///     REPL SINCE <epoch> [max]  — journal frames with epoch > <epoch>,
///                                 hex-encoded as frame.N fields, or
///                                 snapshot_needed=1 when compacted away
///     REPL ACK <epoch>          — follower acknowledges applied epoch
///     REPL SNAPSHOT <offset>    — one hex chunk of the snapshot image
///     REPL PROMOTE              — follower becomes a writable primary
enum class ReplAction { kHello, kStatus, kSince, kAck, kSnapshot, kPromote };

/// Default and ceiling for the REPL SINCE frame-count argument.
inline constexpr std::uint64_t kReplDefaultMaxFrames = 256;
inline constexpr std::uint64_t kReplMaxFrames = 4096;

struct Request {
  Verb verb = Verb::kSlowdown;
  model::CompetingApp app;              // ARRIVE
  std::uint64_t applicationId = 0;      // DEPART
  tools::TaskSpec task;                 // PREDICT
  std::vector<tools::TaskSpec> batch;   // PREDICT_BATCH
  CalibrateAction calibrate = CalibrateAction::kReport;  // CALIBRATE
  CalibrationObservation observation;   // CALIBRATE OBSERVE
  ReplAction repl = ReplAction::kStatus;  // REPL
  std::uint64_t replEpoch = 0;          // REPL SINCE / ACK
  std::uint64_t replMax = kReplDefaultMaxFrames;  // REPL SINCE
  std::uint64_t replOffset = 0;         // REPL SNAPSHOT
};

/// The one request parser. `text` is a view over the raw received bytes of
/// one framed request: the verb line plus, for PREDICT/PREDICT_BATCH, the
/// whole block through its terminator line. Blank and comment lines before
/// the verb are skipped, lines may end in "\r\n" or "\n", and no line is
/// copied: each line is tokenized once, and a PREDICT block's keyword lines
/// are parsed straight into `request.task` (PREDICT_BATCH: `request.batch`,
/// whose size becomes the task count) through the `.workload` grammar.
///
/// `request` is caller-owned and meant to be reused across requests (one per
/// connection): its task storage keeps its capacity, so a steady stream of
/// same-shaped requests parses without allocating. Only the fields of the
/// parsed verb are meaningful afterwards. Returns false when the text holds
/// only blank or comment lines. Throws ProtocolError on malformed input,
/// including an unterminated or oversized PREDICT/PREDICT_BATCH block.
bool parseRequestText(std::string_view text, Request& request);

/// The same parse into a fresh Request; nullopt for blank/comment-only text.
[[nodiscard]] std::optional<Request> parseRequestText(std::string_view text);

/// Serializes a request in wire format (always newline-terminated;
/// round-trips through parseRequestText).
[[nodiscard]] std::string formatRequest(const Request& request);

/// A parsed reply line (client side and tests); the server encodes its
/// replies with ReplyEncoder instead of building one of these.
struct Response {
  bool ok = true;
  std::string code;   // machine-readable ERR code; set when !ok
  std::string error;  // human-readable message; set when !ok
  std::vector<std::pair<std::string, std::string>> fields;  // set when ok

  void add(std::string key, std::string value);
  void add(std::string key, double value);
  void add(std::string key, std::uint64_t value);

  /// nullptr when the key is absent.
  [[nodiscard]] const std::string* find(std::string_view key) const;
  /// Throws ProtocolError when the key is absent or not numeric.
  [[nodiscard]] double number(std::string_view key) const;
};

/// Appends one `OK key=value ...` reply line to a caller-owned buffer. The
/// one reply encoder: the server writes every OK reply through it straight
/// into a connection's output buffer, and formatResponse and Metrics::fill
/// use it too, so values are spelled one way everywhere — doubles in
/// shortest round-trip form, integers in decimal. Keys and values must be
/// single tokens without '='/whitespace (the parser splits on them).
class ReplyEncoder {
 public:
  /// Starts the line (`OK`) at the end of `out`.
  explicit ReplyEncoder(std::string& out) : out_(out) { out_ += "OK"; }

  void add(std::string_view key, std::string_view value) {
    openField(key);
    out_ += value;
  }
  void add(std::string_view key, double value);
  void add(std::string_view key, std::uint64_t value);
  /// Indexed field `key.index=value`, as PREDICT_BATCH, CALIBRATE and
  /// REPL SINCE number their repeated fields.
  void add(std::string_view key, std::size_t index, std::string_view value);
  void add(std::string_view key, std::size_t index, double value);
  void add(std::string_view key, std::size_t index, std::uint64_t value);

  /// Ends the line with its '\n'.
  void finish() { out_ += '\n'; }

 private:
  void openField(std::string_view key) {
    out_ += ' ';
    out_ += key;
    out_ += '=';
  }
  void openField(std::string_view key, std::size_t index);

  std::string& out_;
};

/// Appends `ERR <code> <message>` plus its newline to `out`, with any '\n'
/// or '\r' in the code or message turned into spaces (an unset code reads
/// "error", an unset message "unspecified error").
void appendErrorLine(std::string& out, std::string_view code,
                     std::string_view message);

/// One line, no trailing newline: `OK k=v ...` or `ERR <code> message`.
[[nodiscard]] std::string formatResponse(const Response& response);
/// `ERR <code> <message>` plus its newline: the line an engine sends when it
/// refuses a connection or ends one it cannot resynchronize.
[[nodiscard]] std::string errorLine(std::string_view code,
                                    std::string_view message);
[[nodiscard]] Response parseResponse(const std::string& line);

/// Cap on PREDICT block length, so a hostile client cannot grow a request
/// without bound.
inline constexpr int kMaxPredictBlockLines = 256;

/// Cap on a PREDICT_BATCH block (covers every task block it contains plus
/// the terminating `end_batch`).
inline constexpr int kMaxBatchBlockLines = 4096;

/// Cap on one request line; a peer streaming bytes with no newline is
/// answered `ERR line_too_long` and disconnected once it crosses this.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 10;

/// Cap a client enforces on one response line. Looser than the request cap
/// because a large PREDICT_BATCH legitimately answers with one long line.
inline constexpr std::size_t kMaxResponseLineBytes = std::size_t{4} << 20;

}  // namespace contend::serve
