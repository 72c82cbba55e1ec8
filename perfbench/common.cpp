// common.cpp — clocks, /proc readers, quantiles, spans, and file helpers.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "perfbench.hpp"

namespace perfbench {

double processCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double procCpuSec(int pid) {
  const std::string stat = readFile("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double procStatusKb(int pid, std::string_view field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0 &&
        line.size() > field.size() && line[field.size()] == ':') {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  throw std::runtime_error("no " + std::string(field) + " in /proc status");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint32_t parent,
                           std::uint64_t request) {
  spans_.push_back({name, parent, request, nowNs(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t Tracer::add(std::uint32_t name, std::uint32_t parent,
                          std::uint64_t request, std::int64_t startNs,
                          std::int64_t endNs) {
  spans_.push_back({name, parent, request, startNs, endNs});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) {
      out.push_back(static_cast<double>(span.endNs - span.startNs));
    }
  }
  return out;
}

std::vector<double> Tracer::selfTimes(std::string_view name) const {
  const std::vector<std::int64_t> self = perfbench::selfTimes(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] == name) {
      out.push_back(static_cast<double>(self[i]));
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::string out = "name\tstart_ns\tend_ns\tparent\trequest\n";
  for (const Span& span : spans_) {
    out += names_[span.name] + '\t' + std::to_string(span.startNs) + '\t' +
           std::to_string(span.endNs) + '\t' +
           (span.parent == Span::kNoParent ? std::string("-")
                                           : std::to_string(span.parent)) +
           '\t' + std::to_string(span.request) + '\n';
  }
  writeFile(path, out);
}

std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].endNs - spans[i].startNs;
  }
  for (const Span& span : spans) {
    if (span.parent != Span::kNoParent) {
      self.at(span.parent) -= span.endNs - span.startNs;
    }
  }
  return self;
}

void Result::fail(const std::string& why) {
  ++failed;
  auto& note = info["failures"];
  if (note.size() < 2000) note += (note.empty() ? "" : "; ") + why;
}

namespace {
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}
}  // namespace

std::string Result::json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    // Shortest round-trip form: every digit of the measured value.
    char buffer[64] = "null";  // not measured
    if (std::isfinite(value)) {
      *std::to_chars(buffer, buffer + sizeof(buffer) - 1, value).ptr = '\0';
    }
    out += (first ? "" : ", ") + quoted(name) + ": " + buffer;
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info) {
    out += (first ? "" : ", ") + quoted(key) + ": " + quoted(value);
    first = false;
  }
  return out + "}}";
}

std::vector<StreamRecord> readStream(const std::string& path) {
  const std::string bytes = readFile(path);
  std::vector<StreamRecord> records;
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t eol = bytes.find('\n', at);
    if (eol == std::string::npos) throw std::runtime_error("torn stream " + path);
    std::istringstream header(bytes.substr(at, eol - at));
    StreamRecord record;
    std::size_t length = 0;
    if (!(header >> record.kind >> record.count >> record.arg >> length) ||
        eol + 1 + length > bytes.size()) {
      throw std::runtime_error("malformed stream " + path);
    }
    record.bytes = bytes.substr(eol + 1, length);
    at = eol + 1 + length;
    records.push_back(std::move(record));
  }
  return records;
}

void writeStream(const std::string& path,
                 const std::vector<StreamRecord>& records) {
  std::string out;
  for (const StreamRecord& record : records) {
    out += std::string(1, record.kind) + ' ' + std::to_string(record.count) +
           ' ' + std::to_string(record.arg) + ' ' +
           std::to_string(record.bytes.size()) + '\n' + record.bytes;
  }
  writeFile(path, out);
}

std::uint64_t streamRequests(const std::vector<StreamRecord>& records) {
  std::uint64_t total = 0;
  for (const StreamRecord& record : records) total += record.count;
  return total;
}

std::map<std::string, std::string> readMeta(const std::string& path) {
  std::map<std::string, std::string> meta;
  std::istringstream in(readFile(path));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) meta[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return meta;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
