#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "serve/syscall_hooks.hpp"

namespace contend::serve {

namespace {

// Both magics were bumped when arrive records and checkpoints grew the I/O
// dimension (ioFraction/ioOps per app, the io Poisson-binomial polynomial):
// a pre-I/O journal or snapshot is refused with a clear error instead of
// misdecoded into a mix with garbage I/O state.
constexpr std::string_view kJournalMagic = "CONTJRN2";
constexpr std::string_view kSnapshotMagic = "CONTSNP3";

// Frame caps: an arrive/depart record is tens of bytes and a table-swap
// record carries full delay tables (bounded below by kMaxTableContenders ×
// kMaxTableBins, well under 1 MiB); a snapshot additionally scales with p.
// A length field past these caps is corruption, not data.
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;
constexpr std::uint32_t kMaxSnapshotPayload = 64u << 20;

constexpr std::size_t kArrivePayloadBytes = 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8;
constexpr std::size_t kDepartPayloadBytes = 1 + 8 + 8 + 8;

// Decode-side sanity bounds on table dimensions. Calibrated tables cover
// tens of contenders and a handful of message-size bins; anything bigger is
// a hostile or corrupt length field.
constexpr std::uint32_t kMaxTableContenders = 1024;
constexpr std::uint32_t kMaxTableBins = 32;

// Fixed-size part of an encoded platform model: two piecewise links (2×4
// f64 + u64 threshold each) plus the two table-dimension counts.
constexpr std::size_t kPlatformTablesFixedBytes = 2 * (4 * 8 + 8) + 4 + 4;

// Little-endian scalar (de)serialization; explicit byte order keeps the
// files portable across hosts sharing a journal directory.
void putU32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

void putU64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

void putF64(std::string& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  putU64(out, bits);
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& out) {
    if (bytes_.size() - pos_ < 1) return false;
    out = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& out) {
    if (bytes_.size() - pos_ < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& out) {
    if (bytes_.size() - pos_ < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool f64(double& out) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&out, &bits, sizeof(out));
    return true;
  }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Platform-model tables, as carried by kTableSwap records and snapshots:
// two piecewise links, then n (contender count) and b (j-bin count), then
// the three delay tables. Encoded and decoded by the same two helpers so
// the formats cannot drift apart.
void encodePlatformTables(std::string& payload,
                          const model::ParagonPlatformModel& tables) {
  for (const model::PiecewiseCommParams* link :
       {&tables.toBackend, &tables.fromBackend}) {
    putF64(payload, link->small.alphaSec);
    putF64(payload, link->small.betaWordsPerSec);
    putF64(payload, link->large.alphaSec);
    putF64(payload, link->large.betaWordsPerSec);
    putU64(payload, static_cast<std::uint64_t>(link->thresholdWords));
  }
  const model::DelayTables& delays = tables.delays;
  putU32(payload, static_cast<std::uint32_t>(delays.commFromComp.size()));
  putU32(payload, static_cast<std::uint32_t>(delays.jBins.size()));
  for (const double d : delays.commFromComp) putF64(payload, d);
  for (const double d : delays.commFromComm) putF64(payload, d);
  for (const Words w : delays.jBins) {
    putU64(payload, static_cast<std::uint64_t>(w));
  }
  for (const std::vector<double>& row : delays.compFromComm) {
    for (const double d : row) putF64(payload, d);
  }
}

bool decodePlatformTables(ByteReader& reader,
                          model::ParagonPlatformModel& out) {
  for (model::PiecewiseCommParams* link : {&out.toBackend, &out.fromBackend}) {
    std::uint64_t threshold = 0;
    if (!reader.f64(link->small.alphaSec) ||
        !reader.f64(link->small.betaWordsPerSec) ||
        !reader.f64(link->large.alphaSec) ||
        !reader.f64(link->large.betaWordsPerSec) || !reader.u64(threshold)) {
      return false;
    }
    link->thresholdWords = static_cast<Words>(threshold);
  }
  std::uint32_t contenders = 0;
  std::uint32_t bins = 0;
  if (!reader.u32(contenders) || !reader.u32(bins)) return false;
  if (contenders > kMaxTableContenders || bins > kMaxTableBins) return false;
  model::DelayTables& delays = out.delays;
  delays.commFromComp.resize(contenders);
  for (double& d : delays.commFromComp) {
    if (!reader.f64(d)) return false;
  }
  delays.commFromComm.resize(contenders);
  for (double& d : delays.commFromComm) {
    if (!reader.f64(d)) return false;
  }
  delays.jBins.resize(bins);
  for (Words& w : delays.jBins) {
    std::uint64_t raw = 0;
    if (!reader.u64(raw)) return false;
    w = static_cast<Words>(raw);
  }
  delays.compFromComm.assign(bins, std::vector<double>(contenders));
  for (std::vector<double>& row : delays.compFromComm) {
    for (double& d : row) {
      if (!reader.f64(d)) return false;
    }
  }
  return true;
}

std::string recordPayload(const JournalRecord& record) {
  std::string payload;
  payload.reserve(kArrivePayloadBytes);
  payload.push_back(static_cast<char>(record.kind));
  putU64(payload, record.epoch);
  putU64(payload, record.id);
  putF64(payload, record.timeSec);
  if (record.kind == JournalRecord::Kind::kArrive) {
    putF64(payload, record.app.commFraction);
    putU64(payload, static_cast<std::uint64_t>(record.app.messageWords));
    putF64(payload, record.app.ioFraction);
    putU64(payload, static_cast<std::uint64_t>(record.app.ioOps));
  } else if (record.kind == JournalRecord::Kind::kTableSwap) {
    encodePlatformTables(payload, record.tables);
  }
  return payload;
}

bool decodeRecordPayload(std::string_view payload, JournalRecord& out) {
  ByteReader reader(payload);
  std::uint8_t kind = 0;
  if (!reader.u8(kind)) return false;
  if (kind != static_cast<std::uint8_t>(JournalRecord::Kind::kArrive) &&
      kind != static_cast<std::uint8_t>(JournalRecord::Kind::kDepart) &&
      kind != static_cast<std::uint8_t>(JournalRecord::Kind::kTableSwap)) {
    return false;
  }
  out.kind = static_cast<JournalRecord::Kind>(kind);
  if (!reader.u64(out.epoch) || !reader.u64(out.id) ||
      !reader.f64(out.timeSec)) {
    return false;
  }
  out.app = model::CompetingApp{};
  out.tables = model::ParagonPlatformModel{};
  if (out.kind == JournalRecord::Kind::kArrive) {
    std::uint64_t words = 0;
    std::uint64_t ioOps = 0;
    if (!reader.f64(out.app.commFraction) || !reader.u64(words) ||
        !reader.f64(out.app.ioFraction) || !reader.u64(ioOps)) {
      return false;
    }
    out.app.messageWords = static_cast<Words>(words);
    out.app.ioOps = static_cast<std::int64_t>(ioOps);
  } else if (out.kind == JournalRecord::Kind::kTableSwap) {
    if (!decodePlatformTables(reader, out.tables)) return false;
  }
  return reader.exhausted();
}

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Reads a whole file; empty string when the file does not exist.
std::string readFileOrEmpty(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return {};
    throwErrno("open(" + path + ")");
  }
  std::string out;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int savedErrno = errno;
      ::close(fd);
      errno = savedErrno;
      throwErrno("read(" + path + ")");
    }
    if (n == 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

ssize_t hookedWrite(int fd, const void* buf, std::size_t len) {
  const SyscallHooks* hooks = syscallHooks();
  if (hooks != nullptr && hooks->write) return hooks->write(fd, buf, len);
  return ::write(fd, buf, len);
}

int hookedFsync(int fd) {
  const SyscallHooks* hooks = syscallHooks();
  if (hooks != nullptr && hooks->fsync) return hooks->fsync(fd);
  return ::fsync(fd);
}

/// Writes the whole buffer through the hookable seam; false on error.
bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = hookedWrite(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Fsyncs the directory containing `path`, so a rename into it is durable.
/// False when the directory cannot be opened or synced.
bool fsyncParentDir(const std::string& path) {
  const auto slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = hookedFsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

const char* fsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

std::optional<FsyncPolicy> fsyncPolicyFromName(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "off") return FsyncPolicy::kOff;
  return std::nullopt;
}

std::string_view journalMagic() { return kJournalMagic; }
std::string_view snapshotMagic() { return kSnapshotMagic; }

std::uint32_t crc32(std::string_view bytes) {
  // Nibble-driven CRC-32 (IEEE reflected): a 16-entry table is enough to
  // stay fast for record-sized inputs without a 1 KiB static table.
  static constexpr std::array<std::uint32_t, 16> kTable = [] {
    std::array<std::uint32_t, 16> table{};
    for (std::uint32_t i = 0; i < 16; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 4; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
      }
      table[i] = crc;
    }
    return table;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    const auto byte = static_cast<std::uint8_t>(c);
    crc = kTable[(crc ^ byte) & 0x0fu] ^ (crc >> 4);
    crc = kTable[(crc ^ (byte >> 4)) & 0x0fu] ^ (crc >> 4);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string encodeRecord(const JournalRecord& record) {
  const std::string payload = recordPayload(record);
  std::string out;
  out.reserve(8 + payload.size());
  putU32(out, static_cast<std::uint32_t>(payload.size()));
  putU32(out, crc32(payload));
  out += payload;
  return out;
}

std::vector<JournalRecord> decodeRecords(std::string_view bytes,
                                         std::size_t* cleanBytes) {
  std::vector<JournalRecord> records;
  std::size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    ByteReader header(bytes.substr(pos, 8));
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    (void)header.u32(length);
    (void)header.u32(crc);
    if (length == 0 || length > kMaxRecordPayload) break;
    if (bytes.size() - pos - 8 < length) break;  // torn tail
    const std::string_view payload = bytes.substr(pos + 8, length);
    if (crc32(payload) != crc) break;
    JournalRecord record;
    if (!decodeRecordPayload(payload, record)) break;
    records.push_back(record);
    pos += 8 + length;
  }
  if (cleanBytes != nullptr) *cleanBytes = pos;
  return records;
}

std::string encodeSnapshot(const SnapshotImage& image) {
  const sched::TrackerCheckpoint& checkpoint = image.checkpoint;
  std::string payload;
  putU64(payload, image.epoch);
  putU64(payload, image.arrivals);
  putU64(payload, image.departures);
  putU64(payload, checkpoint.nextId);
  putF64(payload, checkpoint.lastEventTimeSec);
  putU32(payload, static_cast<std::uint32_t>(checkpoint.apps.size()));
  for (std::size_t i = 0; i < checkpoint.apps.size(); ++i) {
    putU64(payload, checkpoint.ids[i]);
    putF64(payload, checkpoint.apps[i].commFraction);
    putU64(payload,
           static_cast<std::uint64_t>(checkpoint.apps[i].messageWords));
    putF64(payload, checkpoint.apps[i].ioFraction);
    putU64(payload, static_cast<std::uint64_t>(checkpoint.apps[i].ioOps));
  }
  for (const std::vector<double>* poly :
       {&checkpoint.commPoly, &checkpoint.compPoly, &checkpoint.ioPoly}) {
    for (const double c : *poly) putF64(payload, c);
  }
  putU64(payload, image.tableGeneration);
  encodePlatformTables(payload, image.tables);
  std::string out;
  out.reserve(8 + payload.size());
  putU32(out, static_cast<std::uint32_t>(payload.size()));
  putU32(out, crc32(payload));
  out += payload;
  return out;
}

std::optional<SnapshotImage> decodeSnapshot(std::string_view bytes) {
  ByteReader header(bytes.substr(0, bytes.size() < 8 ? bytes.size() : 8));
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  if (!header.u32(length) || !header.u32(crc)) return std::nullopt;
  if (length == 0 || length > kMaxSnapshotPayload) return std::nullopt;
  if (bytes.size() - 8 != length) return std::nullopt;
  const std::string_view payload = bytes.substr(8);
  if (crc32(payload) != crc) return std::nullopt;

  ByteReader reader(payload);
  SnapshotImage image;
  sched::TrackerCheckpoint& checkpoint = image.checkpoint;
  std::uint32_t appCount = 0;
  if (!reader.u64(image.epoch) || !reader.u64(image.arrivals) ||
      !reader.u64(image.departures) || !reader.u64(checkpoint.nextId) ||
      !reader.f64(checkpoint.lastEventTimeSec) || !reader.u32(appCount)) {
    return std::nullopt;
  }
  // The remaining payload is appCount app quintuples, three
  // (appCount + 1)-sized coefficient vectors, the table generation, and the
  // platform tables. The tables are variable-sized, so this is a lower bound
  // that stops a hostile appCount from driving the reserves below;
  // decodePlatformTables and the final exhaustion check enforce exactness.
  const std::size_t minimum =
      reader.position() + std::size_t{appCount} * 40 +
      3 * (std::size_t{appCount} + 1) * 8 + 8 + kPlatformTablesFixedBytes;
  if (payload.size() < minimum) return std::nullopt;
  checkpoint.ids.reserve(appCount);
  checkpoint.apps.reserve(appCount);
  for (std::uint32_t i = 0; i < appCount; ++i) {
    std::uint64_t id = 0;
    model::CompetingApp app;
    std::uint64_t words = 0;
    std::uint64_t ioOps = 0;
    if (!reader.u64(id) || !reader.f64(app.commFraction) ||
        !reader.u64(words) || !reader.f64(app.ioFraction) ||
        !reader.u64(ioOps)) {
      return std::nullopt;
    }
    app.messageWords = static_cast<Words>(words);
    app.ioOps = static_cast<std::int64_t>(ioOps);
    checkpoint.ids.push_back(id);
    checkpoint.apps.push_back(app);
  }
  for (std::vector<double>* poly :
       {&checkpoint.commPoly, &checkpoint.compPoly, &checkpoint.ioPoly}) {
    poly->resize(std::size_t{appCount} + 1);
    for (double& c : *poly) {
      if (!reader.f64(c)) return std::nullopt;
    }
  }
  if (!reader.u64(image.tableGeneration)) return std::nullopt;
  if (!decodePlatformTables(reader, image.tables)) return std::nullopt;
  if (!reader.exhausted()) return std::nullopt;
  return image;
}

Journal::Journal(JournalConfig config) : config_(std::move(config)) {
  if (config_.path.empty()) {
    throw std::invalid_argument("Journal: empty path");
  }
  if (config_.fsyncIntervalMs < 1) config_.fsyncIntervalMs = 1;
}

Journal::~Journal() {
  {
    std::lock_guard lock(mutex_);
    stopFlusher_ = true;
  }
  flusherCv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) {
    // A final best-effort flush regardless of policy: shutdown is rare and
    // the cost is one fsync.
    if (dirty_) (void)hookedFsync(fd_);
    ::close(fd_);
  }
}

Journal::LoadedState Journal::load() {
  LoadedState state;

  const std::string snapshotBytes = readFileOrEmpty(snapshotPath());
  if (!snapshotBytes.empty()) {
    if (snapshotBytes.size() < kSnapshotMagic.size() ||
        std::string_view(snapshotBytes).substr(0, kSnapshotMagic.size()) !=
            kSnapshotMagic) {
      throw std::runtime_error("journal snapshot '" + snapshotPath() +
                               "': not a contend snapshot file");
    }
    state.snapshot = decodeSnapshot(
        std::string_view(snapshotBytes).substr(kSnapshotMagic.size()));
    if (!state.snapshot) {
      // Snapshots are written to a tmp file and renamed, so a torn one is
      // impossible in the crash model; refusing beats silently serving
      // from a wrong mix.
      throw std::runtime_error("journal snapshot '" + snapshotPath() +
                               "': corrupt (CRC or framing mismatch)");
    }
  }

  const std::string journalBytes = readFileOrEmpty(config_.path);
  if (journalBytes.empty()) {
    return state;
  }
  if (journalBytes.size() < kJournalMagic.size()) {
    // A crash while creating the file can tear even the 8-byte header;
    // treat it as an empty journal and cut the fragment on start().
    state.truncatedBytes = journalBytes.size();
    return state;
  }
  if (std::string_view(journalBytes).substr(0, kJournalMagic.size()) !=
      kJournalMagic) {
    throw std::runtime_error("journal '" + config_.path +
                             "': not a contend journal file");
  }
  std::size_t cleanBytes = 0;
  state.tail = decodeRecords(
      std::string_view(journalBytes).substr(kJournalMagic.size()),
      &cleanBytes);
  state.truncatedBytes =
      journalBytes.size() - kJournalMagic.size() - cleanBytes;
  return state;
}

void Journal::start(std::uint64_t tailRecords) {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) throw std::runtime_error("Journal::start called twice");
  fd_ = ::open(config_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) throwErrno("open(" + config_.path + ")");

  struct stat st{};
  if (::fstat(fd_, &st) != 0) throwErrno("fstat(" + config_.path + ")");
  auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kJournalMagic.size()) {
    // Fresh (or torn-header) journal: start clean with just the magic.
    if (::ftruncate(fd_, 0) != 0) throwErrno("ftruncate(" + config_.path + ")");
    if (!writeAll(fd_, kJournalMagic)) {
      throwErrno("write magic (" + config_.path + ")");
    }
    size = kJournalMagic.size();
  } else {
    // Cut the torn tail load() reported so the next record frames cleanly.
    std::size_t cleanBytes = 0;
    const std::string bytes = readFileOrEmpty(config_.path);
    (void)decodeRecords(std::string_view(bytes).substr(kJournalMagic.size()),
                        &cleanBytes);
    const auto cleanLength =
        static_cast<off_t>(kJournalMagic.size() + cleanBytes);
    if (static_cast<std::uint64_t>(cleanLength) < size) {
      if (::ftruncate(fd_, cleanLength) != 0) {
        throwErrno("ftruncate(" + config_.path + ")");
      }
    }
  }
  lagRecords_.store(tailRecords, std::memory_order_relaxed);

  if (config_.fsync == FsyncPolicy::kInterval) {
    flusher_ = std::thread([this] { flusherLoop(); });
  }
}

void Journal::appendArrive(std::uint64_t epoch, std::uint64_t id,
                           const model::CompetingApp& app, double timeSec) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kArrive;
  record.epoch = epoch;
  record.id = id;
  record.timeSec = timeSec;
  record.app = app;
  append(record);
}

void Journal::appendDepart(std::uint64_t epoch, std::uint64_t id,
                           double timeSec) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kDepart;
  record.epoch = epoch;
  record.id = id;
  record.timeSec = timeSec;
  append(record);
}

void Journal::appendTableSwap(std::uint64_t epoch, std::uint64_t generation,
                              const model::ParagonPlatformModel& tables,
                              double timeSec) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kTableSwap;
  record.epoch = epoch;
  record.id = generation;
  record.timeSec = timeSec;
  record.tables = tables;
  append(record);
}

void Journal::append(const JournalRecord& record) {
  const std::string frame = encodeRecord(record);
  std::lock_guard lock(mutex_);
  if (fd_ < 0 || failed_) {
    appendErrors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Remember where this frame starts so a failed write can be cut back:
  // leaving half a frame mid-file would make recovery discard every later
  // record, not just this one.
  const off_t before = ::lseek(fd_, 0, SEEK_END);
  if (!writeAll(fd_, frame)) {
    if (before >= 0) (void)::ftruncate(fd_, before);
    failed_ = true;  // no further appends; STATS/HEALTH surface the count
    appendErrors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  lagRecords_.fetch_add(1, std::memory_order_relaxed);
  if (config_.fsync == FsyncPolicy::kAlways) {
    fsyncNowLocked();
  } else if (config_.fsync == FsyncPolicy::kInterval) {
    dirty_ = true;
  }
}

void Journal::fsyncNowLocked() {
  if (fd_ < 0) return;
  if (hookedFsync(fd_) == 0) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    dirty_ = false;
  } else {
    appendErrors_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Journal::flusherLoop() {
  std::unique_lock lock(mutex_);
  while (!stopFlusher_) {
    flusherCv_.wait_for(lock,
                        std::chrono::milliseconds(config_.fsyncIntervalMs));
    if (stopFlusher_) break;
    if (dirty_) fsyncNowLocked();
  }
}

bool Journal::snapshotDue() const {
  return config_.snapshotEvery > 0 &&
         lagRecords_.load(std::memory_order_relaxed) >= config_.snapshotEvery;
}

void Journal::writeSnapshot(const SnapshotImage& image) {
  std::string bytes(kSnapshotMagic);
  bytes += encodeSnapshot(image);

  const std::string finalPath = snapshotPath();
  const std::string tmpPath = finalPath + ".tmp";
  const int fd =
      ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    appendErrors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const bool written = writeAll(fd, bytes);
  // The snapshot must be durable before it can supersede journal records,
  // whatever the append-path policy says.
  const bool synced = written && hookedFsync(fd) == 0;
  ::close(fd);
  if (!synced || ::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
    appendErrors_.fetch_add(1, std::memory_order_relaxed);
    (void)::unlink(tmpPath.c_str());
    return;
  }
  // Until the rename is durable, a power loss can undo it while a
  // truncate survives; keep the journal records until a later snapshot
  // lands.
  if (!fsyncParentDir(finalPath)) {
    appendErrors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);

  // Compact: every record at or below image.epoch is now redundant. A
  // crash before this truncate just leaves stale records that replay as
  // no-ops (the epoch check skips them).
  std::lock_guard lock(mutex_);
  if (fd_ >= 0 && !failed_) {
    if (::ftruncate(fd_, static_cast<off_t>(kJournalMagic.size())) == 0) {
      lagRecords_.store(0, std::memory_order_relaxed);
    } else {
      appendErrors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

JournalStats Journal::stats() const {
  JournalStats stats;
  stats.records = records_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  stats.appendErrors = appendErrors_.load(std::memory_order_relaxed);
  stats.lagRecords = lagRecords_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace contend::serve
