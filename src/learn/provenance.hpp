// Provenance records: the serving fleet's training signal. Every completed
// compile request leaves one record — the program (replayable bytes + its
// fingerprint), the objective, which model/version actually served it
// (including shadow-canary traffic), the decoded pass sequence, and the
// predicted-vs-measured outcome. Serving nodes append records to a bounded
// ProvenanceLog; a learn::Collector drains them over the wire (kProvenance)
// into a trainer process, which replays them into rl::Env-compatible
// trajectories by re-measuring through the shared runtime::EvalService.
//
// The record codec is versioned and golden-file pinned (tests/data/
// provenance_v1.bin): the wire format cannot drift silently, because a
// trainer decoding last week's checkpoint (or a node one release behind)
// must read exactly these bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/compile_service.hpp"
#include "serve/serialization.hpp"
#include "support/status.hpp"

namespace autophase::learn {

/// Bumped whenever the record layout changes; readers reject newer versions.
///
/// v1  fingerprint, replayable module bytes, objective, served model/version,
///     canary flag, sequence, baseline/predicted/measured cycles, area.
/// v2  appends the request's objective weight vector (3 x f64 bit patterns),
///     so fine-tuning sees objective-conditioned traffic. v1 checkpoints
///     decode with an all-zero (inactive) weight vector.
inline constexpr std::uint32_t kProvenanceRecordVersion = 2;

/// One served request. `module_bytes` is the canonical serve::serialize_module
/// blob, so a trainer can reconstruct the exact program without access to the
/// client that submitted it; it is *not* validated here — deserialize_module
/// is the trust boundary when a record is replayed.
struct ProvenanceRecord {
  std::uint64_t fingerprint = 0;  // ir::module_fingerprint of the program
  std::string module_bytes;       // serve::serialize_module(program)
  serve::Objective objective = serve::Objective::kCycles;
  std::string model;          // model that actually served the request
  std::uint32_t version = 0;  // served version
  bool canary = false;        // shadow-canary traffic slice
  std::vector<int> sequence;  // Table-1 indices actually applied
  std::uint64_t baseline_cycles = 0;
  std::uint64_t predicted_cycles = 0;  // value-net estimate
  std::uint64_t measured_cycles = 0;   // EvalService ground truth
  double measured_area = 0.0;
  /// v2: the request's objective weight vector. All-zero (also what every v1
  /// record decodes to) means scalar traffic; active weights tag the record
  /// as Pareto traffic so a trainer can condition on — or filter by — the
  /// objective mix it is fine-tuning for.
  serve::ObjectiveWeights weights{};
};

/// Smallest possible encoded record (every string empty, empty sequence) —
/// the per-entry unit for count guards on untrusted payloads.
inline constexpr std::size_t kMinRecordBytes = 70;

void write_provenance_record(serve::ByteWriter& w, const ProvenanceRecord& record);
/// False on malformed input (reader error, unknown objective, a sequence
/// entry outside the Table-1 passes [0, kNumPasses)). `version` is
/// the batch's record version (from the checkpoint frame or the kProvenance
/// reply header): v1 records end before the weight vector, which stays
/// all-zero.
bool read_provenance_record(serve::ByteReader& r, ProvenanceRecord& record,
                            std::uint32_t version = kProvenanceRecordVersion);

/// Standalone framed checkpoint of a record batch (magic + record version +
/// length-prefixed payload + FNV-1a checksum, the same framing discipline as
/// artifacts and modules). This is the golden-file surface and what
/// ProvenanceLog::serialize round-trips.
std::string serialize_records(const std::vector<ProvenanceRecord>& records);
Result<std::vector<ProvenanceRecord>> deserialize_records(std::string_view bytes);

/// Bounded thread-safe FIFO of provenance records. Serving nodes append from
/// worker threads; a collector drains in arrival order. When full, append
/// drops the *oldest* record (fresh traffic is worth more to a trainer than
/// stale traffic) and counts the loss in dropped(). Serving traffic repeats a
/// few programs, so the log keeps each distinct program's bytes once and
/// fills them back into every record it hands out.
class ProvenanceLog {
 public:
  explicit ProvenanceLog(std::size_t capacity = 4096);

  void append(ProvenanceRecord record);
  /// Removes and returns up to `max` records, oldest first.
  std::vector<ProvenanceRecord> drain(std::size_t max);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Records overwritten before any collector drained them.
  [[nodiscard]] std::uint64_t dropped() const;

  // ---- Checkpointing (trainer restarts must not lose collected traffic) ----
  /// Serializes the current contents without draining.
  [[nodiscard]] std::string serialize() const;
  /// Appends a checkpoint's records (capacity eviction applies as usual).
  Status restore(std::string_view bytes);

 private:
  /// One distinct program's bytes, shared by the live records of it.
  struct Program {
    std::string bytes;
    std::size_t uses = 0;  // live records that point here
  };
  struct Entry {
    ProvenanceRecord record;  // module_bytes empty: the bytes live in *program
    Program* program = nullptr;
  };

  /// The stored program equal to `bytes`, added when there is none.
  Program& intern(std::uint64_t fingerprint, std::string bytes);
  /// Drops the entry's use of its program, freeing the bytes with the last.
  void release(const Entry& entry);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<Entry> records_;  // FIFO: drain from the front
  /// Programs of the live records by fingerprint. Bytes are shared only when
  /// they are equal, so programs whose fingerprints collide stay apart.
  std::unordered_multimap<std::uint64_t, Program> programs_;
  std::uint64_t dropped_ = 0;
};

}  // namespace autophase::learn
