// protocol_fuzz.cpp — libFuzzer harness over the contend-serve parsing
// surface: parseRequestText, parseResponse, parseWorkload, parseEndpoint, the
// journal codecs (decodeRecords, decodeSnapshot), the scenario DSL parser
// (parseScenario), the replication surface (the REPL verb grammar plus
// the hex frame codec, decodeReplFrame), and the job-trace parser
// (parseTrace).
//
// The contract under test: every parser either succeeds or throws a typed
// exception (ProtocolError / std::runtime_error / std::invalid_argument) —
// it never crashes, never trips a sanitizer, and a request that parses must
// survive a format → reparse → format round trip byte-identically.
//
// Two consumers share this file:
//  - the `protocol_fuzz` libFuzzer binary (clang, -DCONTEND_FUZZER=ON),
//    which explores inputs coverage-guided — the CI `fuzz-smoke` job runs
//    it for 60 s over the checked-in corpus;
//  - `fuzz_replay_test`, a plain gtest that replays `tests/fuzz/corpus/`
//    deterministically on every toolchain, so regressions caught by the
//    fuzzer stay fixed even where libFuzzer is unavailable (gcc).
//
// Input format: byte 0 selects the target. ASCII digits map to their face
// value mod 9 (the corpus uses '0'–'8' for readability), every other byte
// maps through mod 9 — so pre-existing corpus files starting with '0'–'7'
// keep the exact targets they were minimised against. The rest of the
// input is the parser's payload.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "scenario/scenario.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/replication.hpp"
#include "serve/server.hpp"
#include "tools/workload_file.hpp"
#include "trace/job_trace.hpp"

namespace {

using contend::serve::ProtocolError;

[[noreturn]] void die(const char* what) {
  // A failed invariant must register as a fuzzer crash, not an exception
  // the harness swallows.
  std::fprintf(stderr, "protocol_fuzz invariant violated: %s\n", what);
  std::abort();
}

/// Parses `text` as one framed request; one it accepts must format into wire
/// text that reparses into a request formatting byte-identically.
void checkRequest(std::string_view text) {
  const auto request = contend::serve::parseRequestText(text);
  if (!request) return;
  const std::string wire = contend::serve::formatRequest(*request);
  const auto reparsed = contend::serve::parseRequestText(wire);
  if (!reparsed) die("formatted request did not reparse");
  if (reparsed->verb != request->verb) die("verb changed in round trip");
  if (contend::serve::formatRequest(*reparsed) != wire) {
    die("request round trip is not a fixed point");
  }
}

void driveParseRequest(const std::string& payload) {
  // The engines frame a request at a line boundary, so parse from every
  // line start; cap the count so thousands of short lines stay fast.
  std::string_view rest = payload;
  for (int starts = 0; starts < 64 && !rest.empty(); ++starts) {
    try {
      checkRequest(rest);
    } catch (const ProtocolError&) {
      // expected rejection path; the next line start is another framing
    }
    const std::size_t newline = rest.find('\n');
    if (newline == std::string_view::npos) break;
    rest.remove_prefix(newline + 1);
  }
}

void driveParseResponse(const std::string& payload) {
  // parseResponse takes one line; feed it the first.
  const std::string line = payload.substr(0, payload.find('\n'));
  const contend::serve::Response response =
      contend::serve::parseResponse(line);
  const std::string wire = contend::serve::formatResponse(response);
  // Round trip: formatted output must itself parse.
  const contend::serve::Response reparsed =
      contend::serve::parseResponse(wire);
  if (reparsed.ok != response.ok) die("response ok flag changed");
  if (contend::serve::formatResponse(reparsed) != wire) {
    die("response round trip is not a fixed point");
  }
}

void driveParseWorkload(const std::string& payload) {
  std::istringstream in(payload);
  (void)contend::tools::parseWorkload(in);
}

void driveParseEndpoint(const std::string& payload) {
  const std::string spec = payload.substr(0, payload.find('\n'));
  const contend::serve::Endpoint endpoint =
      contend::serve::parseEndpoint(spec);
  // An accepted endpoint must stringify into a spec that parses back.
  (void)contend::serve::parseEndpoint(
      contend::serve::endpointToString(endpoint));
}

void driveJournalRecords(const std::string& payload) {
  // decodeRecords never throws: it returns the longest clean prefix. The
  // invariants: the prefix length is in bounds, and every accepted record
  // re-encodes into the exact bytes it was decoded from (the framing is
  // canonical — exact payload sizes, verbatim double bit patterns).
  std::size_t clean = 0;
  const std::vector<contend::serve::JournalRecord> records =
      contend::serve::decodeRecords(payload, &clean);
  if (clean > payload.size()) die("clean prefix longer than the input");
  std::string reencoded;
  for (const contend::serve::JournalRecord& record : records) {
    reencoded += contend::serve::encodeRecord(record);
  }
  if (reencoded != payload.substr(0, clean)) {
    die("journal record round trip is not byte-identical");
  }
}

void driveJournalSnapshot(const std::string& payload) {
  // decodeSnapshot returns nullopt on any framing/CRC/consistency
  // violation; an accepted snapshot must re-encode byte-identically.
  const auto image = contend::serve::decodeSnapshot(payload);
  if (!image) return;
  if (contend::serve::encodeSnapshot(*image) != payload) {
    die("snapshot round trip is not byte-identical");
  }
}

void driveParseScenario(const std::string& payload) {
  // parseScenario either returns a validated Scenario or throws a
  // ScenarioError whose byte offset points inside the input (or exactly at
  // its end for truncation-class errors). Both invariants are checked here;
  // an accepted scenario must also survive arrival-sequence generation for
  // its first task class without crashing.
  try {
    const contend::scenario::Scenario scenario =
        contend::scenario::parseScenario(payload, "fuzz");
    contend::scenario::ArrivalSequence arrivals(scenario.taskClasses.front());
    for (int drawn = 0; drawn < 64; ++drawn) {
      if (!arrivals.next().has_value()) break;
    }
  } catch (const contend::scenario::ScenarioError& e) {
    if (e.byteOffset() > payload.size()) {
      die("scenario error offset points past the input");
    }
  }
}

void driveReplProtocol(const std::string& payload) {
  // Line 1 is a REPL verb tail ("HELLO", "SINCE 12 64", ...): prefix it
  // with the verb and run it through the request parser's round-trip
  // check. Everything after the first newline is a hex-framed replication
  // record for decodeReplFrame.
  const std::size_t split = payload.find('\n');
  checkRequest("REPL " + payload.substr(0, split) + "\n");  // may throw
  if (split == std::string::npos) return;
  std::string hex = payload.substr(split + 1);
  // decodeReplFrame returns nullopt on odd length, non-hex bytes, torn or
  // trailing payload, and CRC mismatch. An accepted frame must re-encode
  // to the canonical (lowercase) spelling of the input hex — the framing
  // underneath is the byte-exact journal codec.
  const auto record = contend::serve::decodeReplFrame(hex);
  if (!record) return;
  for (char& c : hex) {
    if (c >= 'A' && c <= 'F') c = static_cast<char>(c - 'A' + 'a');
  }
  if (contend::serve::encodeReplFrame(*record) != hex) {
    die("replication frame round trip is not canonical");
  }
}

void driveParseTrace(const std::string& payload) {
  // parseTrace either returns a validated trace or throws a TraceError whose
  // byte offset points inside the input (or exactly at its end for
  // truncation-class errors, e.g. an unclosed job block).
  contend::trace::JobTrace trace;
  try {
    trace = contend::trace::parseTrace(payload, "fuzz");
  } catch (const contend::trace::TraceError& e) {
    if (e.byteOffset() > payload.size()) {
      die("trace error offset points past the input");
    }
    return;
  }
  // An accepted trace must survive write -> reparse -> write byte-identically
  // (writeTrace emits the canonical spelling, so it is the fixed point).
  const std::string written = contend::trace::writeTrace(trace);
  try {
    const contend::trace::JobTrace reparsed =
        contend::trace::parseTrace(written, "fuzz");
    if (contend::trace::writeTrace(reparsed) != written) {
      die("trace round trip is not a fixed point");
    }
  } catch (const contend::trace::TraceError&) {
    die("written trace did not reparse");
  }
  // Profiling an accepted trace must price it or reject a zero-duration job
  // with the documented typed error — never crash.
  try {
    (void)contend::trace::profileTrace(trace);
  } catch (const std::invalid_argument&) {
    // a parsed job can still reduce to zero dedicated time
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  // Digits select their face value so the checked-in corpus stays readable;
  // arbitrary lead bytes still reach every target via mod 9.
  const std::uint8_t lead = data[0];
  const int selector =
      (lead >= '0' && lead <= '9') ? (lead - '0') % 9 : lead % 9;
  const std::string payload(reinterpret_cast<const char*>(data + 1),
                            size - 1);
  try {
    switch (selector) {
      case 0:
        driveParseRequest(payload);
        break;
      case 1:
        driveParseResponse(payload);
        break;
      case 2:
        driveParseWorkload(payload);
        break;
      case 3:
        driveParseEndpoint(payload);
        break;
      case 4:
        driveJournalRecords(payload);
        break;
      case 5:
        driveJournalSnapshot(payload);
        break;
      case 6:
        driveParseScenario(payload);
        break;
      case 7:
        driveReplProtocol(payload);
        break;
      default:
        driveParseTrace(payload);
        break;
    }
  } catch (const ProtocolError&) {
    // expected rejection path
  } catch (const std::invalid_argument&) {
    // parseEndpoint's rejection path
  } catch (const std::runtime_error&) {
    // parseWorkload's rejection path
  }
  // Anything else (std::bad_alloc aside, which ASan turns into OOM
  // reports) escapes and crashes the harness — which is the point.
  return 0;
}
