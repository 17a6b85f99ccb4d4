// Durable session journal: the crash-recovery log of the coding service.
//
// CodingService appends one record per externally-visible state change —
// arrival, admission, per-segment completion (with the payload CRC that
// pins the bit-exact delivery contract across a restart), degradation-rung
// change, terminal state, and recovery marker — so a process killed
// mid-run can be restarted and replay the journal into an equivalent
// in-memory state: every pre-crash terminal session keeps its state, every
// in-flight session is re-enqueued, and deterministic splitmix job seeds
// make the re-dispatched segments byte-identical to the ones the lost
// process would have produced.
//
// Format (all little-endian, every frame closed by its CRC32C): a fixed
// header
//
//   "XNCJ" | u32 version | u64 config_fingerprint | u32 crc32c(header)
//
// followed by self-delimiting records
//
//   u8 type | u8 payload_len | payload | u32 crc32c(type|len|payload)
//
// The fingerprint binds a journal to the (config, seed) that wrote it; a
// recovery against a different config is refused instead of replaying
// nonsense. Appends are atomic per record: a torn or truncated tail (the
// crash landed mid-write) fails its CRC or runs out of bytes and is
// DROPPED — parse() reports how many bytes it discarded, and recovery
// treats the journal as ending at the last intact record. A corrupt
// header refuses the whole journal (nullopt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace extnc::serve {

enum class JournalRecordType : std::uint8_t {
  kArrival = 1,      // session arrived (id, time, deadline, shape, tenant)
  kAdmit = 2,        // admission accepted it (possibly forced-degraded)
  kSegmentDone = 3,  // one segment delivered (payload CRC pins the bytes)
  kRung = 4,         // degradation ladder moved to a new rung
  kTerminal = 5,     // session reached a terminal state
  kRecovered = 6,    // a recovery happened here (chained-crash bookkeeping)
};

// One decoded record. Fields beyond (type, at) are populated per type;
// unused ones stay zero.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kArrival;
  double at = 0;  // sim time the event happened

  std::uint64_t session = 0;    // arrival/admit/segment/terminal
  double deadline_s = 0;        // arrival
  std::uint32_t segments = 0;   // arrival
  std::uint16_t tenant = 0;     // arrival
  std::uint8_t priority = 0;    // arrival
  bool force_degraded = false;  // admit
  std::uint32_t segment = 0;    // segment-done
  std::uint32_t payload_crc = 0;  // segment-done
  bool degraded = false;          // segment-done (served under a degraded mode)
  bool rank_short = false;        // segment-done
  std::uint8_t rung = 0;          // rung
  std::uint8_t state = 0;         // terminal (SessionState)
  std::uint8_t shed_reason = 0;   // terminal (ShedReason)
};

struct JournalImage {
  std::uint64_t fingerprint = 0;
  std::vector<JournalRecord> records;
  // Bytes of torn/corrupt tail discarded by parse() (0 on a clean close).
  std::size_t dropped_bytes = 0;
};

// Append-only in-memory journal with serialized bytes always available
// (the CLI persists bytes() to disk after every run; a real deployment
// would fsync per append — the format supports it, each record is
// self-contained).
class Journal {
 public:
  explicit Journal(std::uint64_t fingerprint);

  std::uint64_t fingerprint() const { return fingerprint_; }
  std::size_t records() const { return records_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  void append(const JournalRecord& record);

  // Decode a journal image. nullopt on a bad header (wrong magic/version
  // or header CRC); a torn tail is NOT an error — intact records are
  // returned and the discarded byte count reported.
  static std::optional<JournalImage> parse(std::span<const std::uint8_t> data);

 private:
  std::uint64_t fingerprint_ = 0;
  std::size_t records_ = 0;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace extnc::serve
