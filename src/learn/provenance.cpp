#include "learn/provenance.hpp"

#include <algorithm>
#include <utility>

#include "passes/pass.hpp"

namespace autophase::learn {
namespace {

constexpr char kRecordsMagic[4] = {'A', 'P', 'P', 'V'};  // AutoPhase ProVenance

}  // namespace

void write_provenance_record(serve::ByteWriter& w, const ProvenanceRecord& record) {
  w.u64(record.fingerprint);
  w.str(record.module_bytes);
  w.u8(static_cast<std::uint8_t>(record.objective));
  w.str(record.model);
  w.u32(record.version);
  w.u8(record.canary ? 1 : 0);
  w.i32_vec(record.sequence);
  w.u64(record.baseline_cycles);
  w.u64(record.predicted_cycles);
  w.u64(record.measured_cycles);
  w.f64(record.measured_area);
  w.f64(record.weights.cycles);
  w.f64(record.weights.area);
  w.f64(record.weights.ir_size);
}

bool read_provenance_record(serve::ByteReader& r, ProvenanceRecord& record,
                            std::uint32_t version) {
  record.fingerprint = r.u64();
  record.module_bytes = r.str();
  const std::uint8_t objective = r.u8();
  record.model = r.str();
  record.version = r.u32();
  const std::uint8_t canary = r.u8();
  record.sequence = r.i32_vec();
  record.baseline_cycles = r.u64();
  record.predicted_cycles = r.u64();
  record.measured_cycles = r.u64();
  record.measured_area = r.f64();
  if (version >= 2) {
    record.weights.cycles = r.f64();
    record.weights.area = r.f64();
    record.weights.ir_size = r.f64();
  } else {
    record.weights = {};  // v1 records predate the weight vector
  }
  if (!r.ok()) return false;
  if (objective >= serve::kNumObjectives || canary > 1) return false;
  // Replay applies the sequence, so an index past the Table-1 passes (or
  // the terminate action, which served sequences never contain) is refused
  // here rather than read past the registry.
  for (const int pass : record.sequence) {
    if (pass < 0 || pass >= passes::kNumPasses) return false;
  }
  record.objective = static_cast<serve::Objective>(objective);
  record.canary = canary != 0;
  return true;
}

std::string serialize_records(const std::vector<ProvenanceRecord>& records) {
  const auto write_payload = [&](serve::ByteWriter& payload) {
    serve::write_list(payload, records, write_provenance_record);
  };
  return serve::write_envelope(kRecordsMagic, kProvenanceRecordVersion, write_payload);
}

Result<std::vector<ProvenanceRecord>> deserialize_records(std::string_view bytes) {
  auto envelope =
      serve::read_envelope(bytes, kRecordsMagic, kProvenanceRecordVersion, "provenance");
  if (!envelope.is_ok()) return envelope.status();
  const std::uint32_t version = envelope.value().version;
  serve::ByteReader p(envelope.value().payload);
  const auto read_record = [version](serve::ByteReader& in, ProvenanceRecord& record) {
    return read_provenance_record(in, record, version);
  };
  std::vector<ProvenanceRecord> records;
  const serve::ListRead read = serve::read_list(p, kMinRecordBytes, records, read_record);
  if (read == serve::ListRead::kBadCount) {
    return Status::error("provenance: record count exceeds payload");
  }
  if (read != serve::ListRead::kOk) return Status::error("provenance: malformed record");
  if (!p.at_end()) return Status::error("provenance: trailing garbage in payload");
  return records;
}

ProvenanceLog::ProvenanceLog(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

ProvenanceLog::Program& ProvenanceLog::intern(std::uint64_t fingerprint, std::string bytes) {
  const auto [first, last] = programs_.equal_range(fingerprint);
  for (auto it = first; it != last; ++it) {
    if (it->second.bytes == bytes) return it->second;
  }
  // Serialised bytes arrive in a geometrically grown buffer, up to twice
  // their size in capacity; the log may hold them for thousands of requests.
  bytes.shrink_to_fit();
  return programs_.emplace(fingerprint, Program{std::move(bytes), 0})->second;
}

void ProvenanceLog::release(const Entry& entry) {
  if (--entry.program->uses > 0) return;
  const auto [first, last] = programs_.equal_range(entry.record.fingerprint);
  for (auto it = first; it != last; ++it) {
    if (&it->second == entry.program) {
      programs_.erase(it);
      return;
    }
  }
}

void ProvenanceLog::append(ProvenanceRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (records_.size() >= capacity_) {
    release(records_.front());  // evict the oldest
    records_.pop_front();
    ++dropped_;
  }
  Program& program = intern(record.fingerprint, std::exchange(record.module_bytes, {}));
  ++program.uses;
  records_.push_back({std::move(record), &program});
}

std::vector<ProvenanceRecord> ProvenanceLog::drain(std::size_t max) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t take = std::min(max, records_.size());
  std::vector<ProvenanceRecord> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    Entry& entry = records_.front();
    entry.record.module_bytes = entry.program->bytes;
    release(entry);
    out.push_back(std::move(entry.record));
    records_.pop_front();
  }
  return out;
}

std::size_t ProvenanceLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::uint64_t ProvenanceLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string ProvenanceLog::serialize() const {
  std::vector<ProvenanceRecord> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    live.reserve(records_.size());
    for (const Entry& entry : records_) {
      live.push_back(entry.record);
      live.back().module_bytes = entry.program->bytes;
    }
  }
  return serialize_records(live);
}

Status ProvenanceLog::restore(std::string_view bytes) {
  auto records = deserialize_records(bytes);
  if (!records.is_ok()) return records.status();
  for (ProvenanceRecord& record : records.value()) append(std::move(record));
  return Status::ok();
}

}  // namespace autophase::learn
