#include "serve/prometheus.hpp"

#include <bit>
#include <charconv>
#include <cstddef>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "serve/histogram.hpp"

namespace contend::serve {

namespace {

/// Shortest round-trip representation, same as the wire protocol's doubles.
std::string promDouble(double value) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return "NaN";
  return std::string(buffer, ptr);
}

std::string escapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Emits the HELP/TYPE header for one family.
void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, std::string_view name, std::string_view labels,
            const std::string& value) {
  out += name;
  out += labels;
  out += ' ';
  out += value;
  out += '\n';
}

void counter(std::string& out, std::string_view name, std::string_view help,
             std::uint64_t value) {
  family(out, name, "counter", help);
  sample(out, name, "", std::to_string(value));
}

void gauge(std::string& out, std::string_view name, std::string_view help,
           const std::string& value) {
  family(out, name, "gauge", help);
  sample(out, name, "", value);
}

/// One verb's `_bucket` series: the internal log-scale buckets coarsened to
/// octave boundaries (le = 2^k - 1), cumulative counts exact because every
/// emitted `le` is an exact internal bucket upper bound.
void histogramSeries(std::string& out, std::string_view name,
                     std::string_view verb,
                     const HistogramSnapshot& snapshot) {
  const std::string prefix =
      std::string(name) + "_bucket{verb=\"" + escapeLabelValue(verb) +
      "\",le=\"";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBucketCount; ++i) {
    cumulative += snapshot.counts[i];
    const std::uint64_t upper = histogramBucketUpperBoundUs(i);
    if (i + 1 == kHistogramBucketCount) break;  // overflow → +Inf below
    if (!std::has_single_bit(upper + 1)) continue;
    out += prefix;
    out += std::to_string(upper);
    out += "\"} ";
    out += std::to_string(cumulative);
    out += '\n';
  }
  out += prefix;
  out += "+Inf\"} ";
  out += std::to_string(snapshot.count);
  out += '\n';
  const std::string labels =
      "{verb=\"" + escapeLabelValue(verb) + "\"}";
  sample(out, std::string(name) + "_sum", labels,
         std::to_string(snapshot.sumUs));
  sample(out, std::string(name) + "_count", labels,
         std::to_string(snapshot.count));
}

/// Label-free variant of histogramSeries (same octave coarsening) for
/// families with exactly one series, e.g. the ready-batch-size histogram.
void histogramSeriesNoLabels(std::string& out, std::string_view name,
                             const HistogramSnapshot& snapshot) {
  const std::string prefix = std::string(name) + "_bucket{le=\"";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBucketCount; ++i) {
    cumulative += snapshot.counts[i];
    const std::uint64_t upper = histogramBucketUpperBoundUs(i);
    if (i + 1 == kHistogramBucketCount) break;  // overflow → +Inf below
    if (!std::has_single_bit(upper + 1)) continue;
    out += prefix;
    out += std::to_string(upper);
    out += "\"} ";
    out += std::to_string(cumulative);
    out += '\n';
  }
  out += prefix;
  out += "+Inf\"} ";
  out += std::to_string(snapshot.count);
  out += '\n';
  sample(out, std::string(name) + "_sum", "",
         std::to_string(snapshot.sumUs));
  sample(out, std::string(name) + "_count", "",
         std::to_string(snapshot.count));
}

}  // namespace

std::string renderPrometheusText(const PrometheusInput& input) {
  const MetricsSnapshot& m = input.metrics;
  std::string out;
  out.reserve(16 * 1024);

  gauge(out, "contend_uptime_seconds",
        "Seconds since the daemon started serving.",
        promDouble(input.uptimeSec));
  gauge(out, "contend_recovered",
        "1 when the tracker state was rebuilt from a journal at startup.",
        input.recovered ? "1" : "0");

  family(out, "contend_requests_total", "counter",
         "Requests served, by verb.");
  for (int verb = 0; verb < kVerbCount; ++verb) {
    sample(out, "contend_requests_total",
           "{verb=\"" +
               escapeLabelValue(verbName(static_cast<Verb>(verb))) + "\"}",
           std::to_string(m.requestsByVerb[static_cast<std::size_t>(verb)]));
  }
  counter(out, "contend_errors_total",
          "Requests answered with an ERR line.", m.errors);
  counter(out, "contend_connections_accepted_total",
          "Connections accepted by the listener.", m.connectionsAccepted);
  counter(out, "contend_connections_rejected_total",
          "Connections refused over the admission cap.",
          m.connectionsRejected);
  counter(out, "contend_accept_errors_total",
          "accept(2) failures (fd exhaustion and friends).", m.acceptErrors);
  counter(out, "contend_line_overflows_total",
          "Connections dropped for exceeding the request line cap.",
          m.lineOverflows);
  counter(out, "contend_deadlines_expired_total",
          "Connections dropped for exceeding the per-request deadline.",
          m.deadlinesExpired);
  counter(out, "contend_dropped_bytes_total",
          "Response bytes never delivered because the peer vanished.",
          m.droppedBytes);
  counter(out, "contend_slow_requests_total",
          "Requests slower than the --slow-request-us threshold.",
          m.slowRequests);

  // Event-loop counters.
  counter(out, "contend_loop_wakeups_total",
          "epoll_wait returns across all event loops.",
          m.loopWakeups);
  counter(out, "contend_loop_events_total",
          "Ready events delivered to the event loops.",
          m.loopEvents);
  counter(out, "contend_loop_eagain_reads_total",
          "Reads that drained a socket to EAGAIN (edge-triggered recv).",
          m.loopEagainReads);
  counter(out, "contend_loop_eagain_writes_total",
          "Writes that hit EAGAIN and armed EPOLLOUT backpressure.",
          m.loopEagainWrites);
  family(out, "contend_loop_ready_batch", "histogram",
         "Ready-event batch size per epoll_wait wakeup.");
  histogramSeriesNoLabels(out, "contend_loop_ready_batch", m.loopReadyBatch);

  gauge(out, "contend_epoch", "Mutations applied to the mix so far.",
        std::to_string(input.tracker.epoch));
  gauge(out, "contend_table_generation",
        "Delay-table generation (bumped by every CALIBRATE APPLY swap).",
        std::to_string(input.tracker.tableGeneration));
  gauge(out, "contend_active_applications",
        "Competing applications currently in the mix (the paper's p).",
        std::to_string(input.slowdowns.active));
  gauge(out, "contend_comp_slowdown",
        "Current computation slowdown factor.",
        promDouble(input.slowdowns.comp));
  gauge(out, "contend_comm_slowdown",
        "Current communication slowdown factor.",
        promDouble(input.slowdowns.comm));
  counter(out, "contend_arrivals_total", "ARRIVE mutations applied.",
          input.tracker.arrivals);
  counter(out, "contend_departures_total", "DEPART mutations applied.",
          input.tracker.departures);

  family(out, "contend_cache_hits_total", "counter",
         "Prediction-cache hits, per shard.");
  for (std::size_t i = 0; i < input.tracker.cacheShards.size(); ++i) {
    sample(out, "contend_cache_hits_total",
           "{shard=\"" + std::to_string(i) + "\"}",
           std::to_string(input.tracker.cacheShards[i].hits));
  }
  family(out, "contend_cache_misses_total", "counter",
         "Prediction-cache misses, per shard.");
  for (std::size_t i = 0; i < input.tracker.cacheShards.size(); ++i) {
    sample(out, "contend_cache_misses_total",
           "{shard=\"" + std::to_string(i) + "\"}",
           std::to_string(input.tracker.cacheShards[i].misses));
  }
  family(out, "contend_cache_evictions_total", "counter",
         "Prediction-cache LRU evictions, per shard.");
  for (std::size_t i = 0; i < input.tracker.cacheShards.size(); ++i) {
    sample(out, "contend_cache_evictions_total",
           "{shard=\"" + std::to_string(i) + "\"}",
           std::to_string(input.tracker.cacheShards[i].evictions));
  }
  family(out, "contend_cache_entries", "gauge",
         "Prediction-cache resident entries, per shard.");
  for (std::size_t i = 0; i < input.tracker.cacheShards.size(); ++i) {
    sample(out, "contend_cache_entries",
           "{shard=\"" + std::to_string(i) + "\"}",
           std::to_string(input.tracker.cacheShards[i].entries));
  }

  if (input.journal) {
    counter(out, "contend_journal_records_total",
            "Mutation records appended to the write-ahead journal.",
            input.journalStats.records);
    counter(out, "contend_journal_bytes_total",
            "Bytes appended to the write-ahead journal.",
            input.journalStats.bytes);
    counter(out, "contend_journal_snapshots_total",
            "Compacting snapshots written.", input.journalStats.snapshots);
    counter(out, "contend_journal_fsyncs_total", "fsync(2) calls issued.",
            input.journalStats.fsyncs);
    gauge(out, "contend_journal_lag_records",
          "Replayed-but-not-yet-compacted records (recovery debt).",
          std::to_string(input.journalStats.lagRecords));
    gauge(out, "contend_journal_append_errors",
          "Latched journal append failures (nonzero means durability lost).",
          std::to_string(input.journalStats.appendErrors));
    gauge(out, "contend_journal_healthy",
          "1 while every append has succeeded; 0 once any append failed "
          "(matches HEALTH reporting journal=degraded).",
          input.journalStats.appendErrors == 0 ? "1" : "0");
  }

  // Replication: always exported (0/standalone when unclustered) so
  // dashboards have a stable schema, mirroring repl_* in STATS/HEALTH.
  gauge(out, "contend_repl_role",
        "Replication role: 0 standalone, 1 primary, 2 follower.",
        std::to_string(input.replRole));
  gauge(out, "contend_repl_lag_records",
        "Journal records the local replica trails its primary by "
        "(0 on a primary or standalone daemon).",
        std::to_string(input.replLagRecords));
  gauge(out, "contend_repl_acked_epoch",
        "Highest epoch a follower has acknowledged to this primary.",
        std::to_string(input.replAckedEpoch));

  family(out, "contend_request_duration_us", "histogram",
         "Request service time in microseconds, by verb.");
  for (int verb = 0; verb < kVerbCount; ++verb) {
    histogramSeries(out, "contend_request_duration_us",
                    verbName(static_cast<Verb>(verb)),
                    m.latencyByVerb[static_cast<std::size_t>(verb)]);
  }

  out += "# EOF\n";
  return out;
}

namespace {

bool validMetricName(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool validLabelName(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

/// Prometheus sample values: floats plus the +Inf/-Inf/NaN spellings
/// (std::from_chars rejects a leading '+', so strip it by hand).
bool parsePromValue(std::string_view text, double& out) {
  if (text.empty()) return false;
  bool negative = false;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    text.remove_prefix(1);
    if (text.empty()) return false;
  }
  const auto matches = [&](std::string_view word) {
    if (text.size() != word.size()) return false;
    for (std::size_t i = 0; i < word.size(); ++i) {
      const char a = text[i] | 0x20;  // ASCII lowercase
      const char b = word[i] | 0x20;
      if (a != b) return false;
    }
    return true;
  };
  if (matches("inf")) {
    out = negative ? -std::numeric_limits<double>::infinity()
                   : std::numeric_limits<double>::infinity();
    return true;
  }
  if (matches("nan")) {
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  if (negative) out = -out;
  return true;
}

struct ParsedSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // in order
  double value = 0.0;
  std::string valueText;
};

/// Parses `name{label="value",...} value`; returns false (with a reason)
/// on any syntax error.
bool parseSampleLine(std::string_view line, ParsedSample& out,
                     std::string& reason) {
  std::size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  out.name = std::string(line.substr(0, pos));
  if (!validMetricName(out.name)) {
    reason = "bad metric name";
    return false;
  }
  out.labels.clear();
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t nameEnd = pos;
      while (nameEnd < line.size() && line[nameEnd] != '=') ++nameEnd;
      if (nameEnd >= line.size()) {
        reason = "label without '='";
        return false;
      }
      const std::string labelName(line.substr(pos, nameEnd - pos));
      if (!validLabelName(labelName)) {
        reason = "bad label name '" + labelName + "'";
        return false;
      }
      pos = nameEnd + 1;
      if (pos >= line.size() || line[pos] != '"') {
        reason = "label value not quoted";
        return false;
      }
      ++pos;
      std::string value;
      bool closed = false;
      while (pos < line.size()) {
        const char c = line[pos];
        if (c == '\\') {
          if (pos + 1 >= line.size()) break;
          const char escaped = line[pos + 1];
          if (escaped == 'n') {
            value += '\n';
          } else if (escaped == '\\' || escaped == '"') {
            value += escaped;
          } else {
            reason = "bad escape in label value";
            return false;
          }
          pos += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++pos;
          break;
        }
        value += c;
        ++pos;
      }
      if (!closed) {
        reason = "unterminated label value";
        return false;
      }
      out.labels.emplace_back(labelName, value);
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      reason = "unterminated label set";
      return false;
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    reason = "missing value";
    return false;
  }
  ++pos;
  out.valueText = std::string(line.substr(pos));
  if (out.valueText.find(' ') != std::string::npos) {
    reason = "trailing tokens after the value (timestamps are not emitted)";
    return false;
  }
  if (!parsePromValue(out.valueText, out.value)) {
    reason = "unparsable value '" + out.valueText + "'";
    return false;
  }
  return true;
}

std::string serializeLabels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::string_view skip = {}) {
  std::map<std::string, std::string> sorted;
  for (const auto& [name, value] : labels) {
    if (name != skip) sorted.emplace(name, value);
  }
  std::string out;
  for (const auto& [name, value] : sorted) {
    out += name;
    out += '=';
    out += value;
    out += '\x1f';
  }
  return out;
}

struct HistogramSeriesData {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  bool sawInf = false;
  double infCount = 0.0;
  bool hasSum = false;
  bool hasCount = false;
  double countValue = 0.0;
  int firstLine = 0;
};

}  // namespace

std::vector<std::string> lintPrometheusText(std::string_view text) {
  std::vector<std::string> violations;
  const auto violate = [&](int lineNo, const std::string& what) {
    violations.push_back("line " + std::to_string(lineNo) + ": " + what);
  };

  if (text.empty()) {
    violations.push_back("empty exposition");
    return violations;
  }

  std::unordered_map<std::string, std::string> typeByFamily;
  std::unordered_set<std::string> helpSeen;
  std::unordered_set<std::string> familiesWithSamples;
  std::unordered_set<std::string> closedFamilies;
  std::unordered_set<std::string> seriesSeen;
  // (family, serialized labels minus le) -> collected histogram series.
  std::map<std::pair<std::string, std::string>, HistogramSeriesData>
      histograms;
  std::string currentFamily;
  bool sawEof = false;

  // The base family of a sample name: histogram samples report under
  // base_bucket/base_sum/base_count once `base` is TYPEd histogram.
  const auto familyOf = [&](const std::string& name) {
    for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        const std::string base = name.substr(0, name.size() - suffix.size());
        const auto it = typeByFamily.find(base);
        if (it != typeByFamily.end() && it->second == "histogram") {
          return base;
        }
      }
    }
    return name;
  };

  int lineNo = 0;
  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const std::size_t newline = text.find('\n', cursor);
    const std::string_view line =
        newline == std::string_view::npos
            ? text.substr(cursor)
            : text.substr(cursor, newline - cursor);
    cursor = newline == std::string_view::npos ? text.size() + 1
                                               : newline + 1;
    if (line.empty() && cursor > text.size()) break;  // trailing newline
    ++lineNo;

    if (sawEof) {
      violate(lineNo, "content after the '# EOF' terminator");
      break;
    }
    if (line.empty()) {
      violate(lineNo, "blank line");
      continue;
    }
    if (line == "# EOF") {
      sawEof = true;
      continue;
    }
    if (line[0] == '#') {
      // Only `# HELP <name> <text>` and `# TYPE <name> <type>` comments are
      // emitted; anything else is a framing bug.
      const bool isHelp = line.rfind("# HELP ", 0) == 0;
      const bool isType = line.rfind("# TYPE ", 0) == 0;
      if (!isHelp && !isType) {
        violate(lineNo, "unexpected comment '" + std::string(line) + "'");
        continue;
      }
      const std::string_view rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      const std::string name(rest.substr(0, space));
      if (!validMetricName(name)) {
        violate(lineNo, "bad metric name in comment");
        continue;
      }
      if (familiesWithSamples.count(name) != 0) {
        violate(lineNo, (isHelp ? std::string("HELP") : std::string("TYPE")) +
                            " for '" + name + "' after its samples");
      }
      if (isHelp) {
        if (!helpSeen.insert(name).second) {
          violate(lineNo, "duplicate HELP for '" + name + "'");
        }
        continue;
      }
      const std::string type(space == std::string_view::npos
                                 ? std::string_view{}
                                 : rest.substr(space + 1));
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        violate(lineNo, "unknown TYPE '" + type + "'");
        continue;
      }
      if (!typeByFamily.emplace(name, type).second) {
        violate(lineNo, "duplicate TYPE for '" + name + "'");
      }
      continue;
    }

    ParsedSample parsed;
    std::string reason;
    if (!parseSampleLine(line, parsed, reason)) {
      violate(lineNo, reason + " in '" + std::string(line) + "'");
      continue;
    }
    const std::string fam = familyOf(parsed.name);
    if (typeByFamily.find(fam) == typeByFamily.end()) {
      violate(lineNo, "sample for '" + parsed.name + "' without a TYPE");
    }
    if (fam != currentFamily) {
      if (closedFamilies.count(fam) != 0) {
        violate(lineNo,
                "family '" + fam + "' is interleaved with other families");
      }
      if (!currentFamily.empty()) closedFamilies.insert(currentFamily);
      currentFamily = fam;
    }
    familiesWithSamples.insert(fam);
    const std::string seriesKey =
        parsed.name + '\x1e' + serializeLabels(parsed.labels);
    if (!seriesSeen.insert(seriesKey).second) {
      violate(lineNo, "duplicate series '" + std::string(line) + "'");
    }

    const auto typeIt = typeByFamily.find(fam);
    if (typeIt != typeByFamily.end() && typeIt->second == "histogram") {
      if (parsed.name == fam) {
        violate(lineNo, "histogram '" + fam +
                            "' has a bare sample (expected _bucket/_sum/"
                            "_count)");
        continue;
      }
      const auto key =
          std::make_pair(fam, serializeLabels(parsed.labels, "le"));
      HistogramSeriesData& data = histograms[key];
      if (data.firstLine == 0) data.firstLine = lineNo;
      if (parsed.name == fam + "_sum") {
        data.hasSum = true;
      } else if (parsed.name == fam + "_count") {
        data.hasCount = true;
        data.countValue = parsed.value;
      } else {  // _bucket
        std::string le;
        bool hasLe = false;
        for (const auto& [labelName, labelValue] : parsed.labels) {
          if (labelName == "le") {
            le = labelValue;
            hasLe = true;
          }
        }
        double leValue = 0.0;
        if (!hasLe || !parsePromValue(le, leValue)) {
          violate(lineNo, "histogram bucket without a numeric 'le' label");
          continue;
        }
        if (leValue == std::numeric_limits<double>::infinity()) {
          data.sawInf = true;
          data.infCount = parsed.value;
        }
        data.buckets.emplace_back(leValue, parsed.value);
      }
    }
  }

  if (!sawEof) {
    violations.push_back("missing '# EOF' terminator line");
  }

  for (const auto& [key, data] : histograms) {
    const std::string where =
        "histogram '" + key.first + "' (series starting at line " +
        std::to_string(data.firstLine) + ")";
    if (data.buckets.empty()) {
      violations.push_back(where + ": no _bucket samples");
      continue;
    }
    for (std::size_t i = 1; i < data.buckets.size(); ++i) {
      if (!(data.buckets[i].first > data.buckets[i - 1].first)) {
        violations.push_back(where + ": 'le' values not strictly increasing");
        break;
      }
    }
    for (std::size_t i = 1; i < data.buckets.size(); ++i) {
      if (data.buckets[i].second < data.buckets[i - 1].second) {
        violations.push_back(where + ": cumulative bucket counts decrease");
        break;
      }
    }
    if (!data.sawInf) {
      violations.push_back(where + ": buckets do not end in le=\"+Inf\"");
    }
    if (!data.hasSum) {
      violations.push_back(where + ": missing _sum");
    }
    if (!data.hasCount) {
      violations.push_back(where + ": missing _count");
    } else if (data.sawInf && data.countValue != data.infCount) {
      violations.push_back(where + ": _count disagrees with the +Inf bucket");
    }
  }

  return violations;
}

}  // namespace contend::serve
