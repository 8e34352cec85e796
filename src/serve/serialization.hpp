// Versioned binary serialization for trained artifacts, so training and
// serving are separate processes: a trainer exports a PolicyArtifact blob,
// the serving fleet imports it into its ModelRegistry. The format is
// little-endian, length-prefixed, framed with a magic + format version and
// an FNV-1a payload checksum, and round-trips every weight bit-exactly
// (doubles travel as their raw 64-bit patterns).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/artifact.hpp"
#include "support/hash.hpp"
#include "support/status.hpp"

namespace autophase::serve {

/// Bumped whenever the payload layout changes; readers reject newer formats.
///
/// v1  the mandatory artifact body (spec, nets, normalizer).
/// v2  v1 body + a table of versioned optional sections, each length-
///     prefixed and tagged so readers skip tags they do not know. Writers
///     emit v1 whenever no optional section is present, so artifacts without
///     extras stay bit-identical to pre-v2 blobs and old readers keep
///     accepting them.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Optional-section tags (format v2). New sections append new tags; tag
/// values are never reused.
enum class ArtifactSection : std::uint32_t {
  kCorpusBaselines = 1,  // training-corpus measures for EvalService warm-up
};

/// Little-endian append-only byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  /// Raw IEEE-754 bit pattern — bit-exact round trip, NaNs included.
  void f64(double v);
  void str(std::string_view v);
  void f64_vec(const std::vector<double>& v);
  void i32_vec(const std::vector<int>& v);
  /// A u64 length prefix, then whatever `write_body` appends to this writer:
  /// the same bytes as str(body), built in place instead of in a second buffer.
  template <typename WriteBody>
  void prefixed(WriteBody&& write_body) {
    const std::size_t at = buf_.size();
    u64(0);
    write_body(*this);
    patch_u64(at, buf_.size() - at - 8);
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void patch_u64(std::size_t at, std::uint64_t v);

  std::string buf_;
};

/// Bounds-checked reader over a serialized blob. Out-of-bounds or oversized
/// reads set a sticky error flag (and return zero values) instead of
/// throwing — callers check ok() once per decoded unit.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  std::string str();
  /// str() without the copy: a view into the reader's bytes.
  std::string_view str_view();
  std::vector<double> f64_vec();
  std::vector<int> i32_vec();
  /// A u64 count of entries that each take at least `min_entry_bytes`. A
  /// count promising more entries than the bytes left can hold sets the
  /// error flag and reads as 0, so it never sizes an allocation or a loop.
  std::uint64_t count(std::size_t min_entry_bytes);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  bool take(void* out, std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Shared layouts ----

/// The blob envelope of the artifact (APSB), module (APMB) and provenance
/// (APPV) formats: 4-byte magic, u32 version, u64 payload length, payload,
/// u64 FNV-1a of the payload. Appends the blob to `w`, payload in place, so
/// a message can carry a blob without building it in a second buffer.
template <typename WritePayload>
void write_envelope(ByteWriter& w, const char (&magic)[4], std::uint32_t version,
                    WritePayload&& write_payload) {
  const std::size_t at = w.bytes().size();
  for (const char c : magic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(version);
  w.prefixed(write_payload);
  w.u64(fnv1a(std::string_view(w.bytes()).substr(at + 16)));  // the payload, after the header
}

/// The envelope as a blob of its own.
template <typename WritePayload>
std::string write_envelope(const char (&magic)[4], std::uint32_t version,
                           WritePayload&& write_payload) {
  ByteWriter w;
  write_envelope(w, magic, version, write_payload);
  return w.take();
}

struct Envelope {
  std::uint32_t version = 0;
  std::string_view payload;  // a view into the blob
};
/// Checks magic, version in [1, max_version], length and checksum. Errors
/// read "<what>: ..." so each format keeps its own prefix.
Result<Envelope> read_envelope(std::string_view blob, const char (&magic)[4],
                               std::uint32_t max_version, const char* what);

/// A u64 count, then each entry.
template <typename T, typename WriteEntry>
void write_list(ByteWriter& w, const std::vector<T>& entries, WriteEntry&& write_entry) {
  w.u64(entries.size());
  for (const T& entry : entries) write_entry(w, entry);
}

enum class ListRead : std::uint8_t {
  kOk,
  kBadCount,  // more entries than the bytes left could hold
  kBadEntry,  // an entry was truncated or read_entry refused it
};
/// Reads a write_list list into `out`. Every entry takes at least
/// `min_entry_bytes`, so a count promising more entries than the bytes left
/// can hold is refused before anything is sized.
template <typename T, typename ReadEntry>
ListRead read_list(ByteReader& r, std::size_t min_entry_bytes, std::vector<T>& out,
                   ReadEntry&& read_entry) {
  const std::uint64_t n = r.count(min_entry_bytes);
  if (!r.ok()) return ListRead::kBadCount;
  out.clear();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!read_entry(r, out.emplace_back()) || !r.ok()) return ListRead::kBadEntry;
  }
  return ListRead::kOk;
}

/// One field of a wire payload's optional tagged trailer: u8 tag, then the
/// length-prefixed body `write_body` appends.
template <typename WriteBody>
void write_field(ByteWriter& w, std::uint8_t tag, WriteBody&& write_body) {
  w.u8(tag);
  w.prefixed(write_body);
}

/// Reads a payload's tagged trailer to its end, enforcing the trailer rules
/// of docs/wire-protocol.md. `read_field(tag, body)` returns an error for a
/// known tag with a corrupt body, which fails the payload, and ok for a tag
/// it does not know, which is skipped. A truncated field, or a payload that
/// was already truncated before its trailer, fails as "<what>: truncated
/// payload".
template <typename ReadField>
Status read_fields(ByteReader& r, const char* what, ReadField&& read_field) {
  while (r.ok() && !r.at_end()) {
    const std::uint8_t tag = r.u8();
    const std::string_view body = r.str_view();
    if (!r.ok()) break;
    if (Status s = read_field(tag, body); !s.is_ok()) return s;
  }
  if (!r.ok()) return Status::error(std::string(what) + ": truncated payload");
  return Status::ok();
}

// ---- Component codecs (shared by the artifact format and future snapshots) ----
void write_mlp(ByteWriter& w, const ml::Mlp& net);
Result<ml::Mlp> read_mlp(ByteReader& r);
void write_forest(ByteWriter& w, const ml::RandomForest& forest);
Result<ml::RandomForest> read_forest(ByteReader& r);
void write_normalizer(ByteWriter& w, const FeatureNormalizer& normalizer);
Result<FeatureNormalizer> read_normalizer(ByteReader& r);

// ---- Artifact framing ----
std::string serialize_artifact(const PolicyArtifact& artifact);
Result<PolicyArtifact> deserialize_artifact(std::string_view bytes);

Status save_artifact_file(const PolicyArtifact& artifact, const std::string& path);
Result<PolicyArtifact> load_artifact_file(const std::string& path);

}  // namespace autophase::serve
