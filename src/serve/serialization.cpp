#include "serve/serialization.hpp"

#include <bit>
#include <cstring>
#include <fstream>

#include "features/features.hpp"
#include "passes/pass.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::serve {

namespace {

constexpr char kMagic[4] = {'A', 'P', 'S', 'B'};  // AutoPhase Serve Blob

/// Cross-field consistency of a fully deserialized artifact. The checksum
/// authenticates nothing — a well-framed blob can still carry indices that
/// would read out of bounds at serve time — so every field that is later
/// used as an index is bounded here, at the trust boundary, instead of in
/// each consumer.
Status validate_artifact(const PolicyArtifact& a) {
  if (a.spec.episode_length < 1 || a.spec.episode_length > kMaxDecodeSteps) {
    return Status::error("artifact: episode length out of range");
  }
  for (const int f : a.spec.feature_subset) {
    if (f < 0 || f >= features::kNumFeatures) {
      return Status::error("artifact: feature subset index out of range");
    }
  }
  for (const int p : a.spec.action_subset) {
    if (p < 0 || p >= passes::kNumPasses) {
      return Status::error("artifact: action subset index out of range");
    }
  }
  if (!a.normalizer.identity() && a.normalizer.mean.size() != a.policy.config().input) {
    return Status::error("artifact: normalizer length does not match policy input");
  }
  if (a.value.has_value() && (a.value->config().input != a.policy.config().input ||
                              a.value->config().output != 1)) {
    return Status::error("artifact: value net shape does not match policy input");
  }
  return Status::ok();
}

void write_baselines_section(ByteWriter& w, const PolicyArtifact& artifact) {
  w.u64(artifact.baselines_config);  // measuring eval service's fingerprint
  write_list(w, artifact.baselines, [](ByteWriter& out, const CorpusBaseline& b) {
    out.u64(b.fingerprint);
    out.u64(b.cycles);
    out.f64(b.area);
  });
}

Status read_baselines_section(std::string_view bytes, PolicyArtifact& artifact) {
  ByteReader r(bytes);
  artifact.baselines_config = r.u64();
  const auto read_baseline = [](ByteReader& in, CorpusBaseline& b) {
    b.fingerprint = in.u64();
    b.cycles = in.u64();
    b.area = in.f64();
    return true;
  };
  const ListRead read = read_list(r, /*min_entry_bytes=*/24, artifact.baselines, read_baseline);
  if (read == ListRead::kBadCount) return Status::error("artifact baselines: corrupt entry count");
  if (read != ListRead::kOk || !r.at_end()) {
    return Status::error("artifact baselines: truncated section");
  }
  return Status::ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void ByteWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view v) {
  u64(v.size());
  buf_.append(v);
}

void ByteWriter::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void ByteWriter::i32_vec(const std::vector<int>& v) {
  u64(v.size());
  for (const int x : v) i32(x);
}

void ByteWriter::patch_u64(std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

bool ByteReader::take(void* out, std::size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  std::uint8_t v = 0;
  take(&v, 1);
  return v;
}

std::uint32_t ByteReader::u32() {
  std::uint8_t raw[4] = {};
  take(raw, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint8_t raw[8] = {};
  take(raw, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
  return v;
}

std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() { return std::string(str_view()); }

std::string_view ByteReader::str_view() {
  const std::uint64_t n = count(1);
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::vector<double> ByteReader::f64_vec() {
  const std::uint64_t n = count(8);
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64());
  return out;
}

std::vector<int> ByteReader::i32_vec() {
  const std::uint64_t n = count(4);
  std::vector<int> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(i32());
  return out;
}

std::uint64_t ByteReader::count(std::size_t min_entry_bytes) {
  const std::uint64_t n = u64();
  if (!ok_ || n > remaining() / min_entry_bytes) {
    ok_ = false;
    return 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Blob envelope
// ---------------------------------------------------------------------------

Result<Envelope> read_envelope(std::string_view blob, const char (&magic)[4],
                               std::uint32_t max_version, const char* what) {
  if (blob.substr(0, 4) != std::string_view(magic, 4)) {
    return Status::error(strf("%s: bad magic", what));
  }
  ByteReader r(blob.substr(4));
  Envelope envelope;
  envelope.version = r.u32();
  if (envelope.version == 0 || envelope.version > max_version) {
    return Status::error(strf("%s: unsupported format version %u", what, envelope.version));
  }
  envelope.payload = r.str_view();
  const std::uint64_t checksum = r.u64();
  if (!r.ok() || !r.at_end()) return Status::error(strf("%s: truncated or oversized", what));
  if (fnv1a(envelope.payload) != checksum) {
    return Status::error(strf("%s: checksum mismatch", what));
  }
  return envelope;
}

// ---------------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------------

void write_mlp(ByteWriter& w, const ml::Mlp& net) {
  const ml::MlpConfig& c = net.config();
  w.u64(c.input);
  w.u64(c.hidden.size());
  for (const std::size_t h : c.hidden) w.u64(h);
  w.u64(c.output);
  w.u8(static_cast<std::uint8_t>(c.activation));
  w.f64(c.init_stddev_scale);
  // Shapes are implied by the config; only the flat parameters travel.
  w.f64_vec(net.flatten());
}

Result<ml::Mlp> read_mlp(ByteReader& r) {
  // Hard cap on any single layer width; keeps the arithmetic below far from
  // overflow and rejects absurd shapes before a single matrix is allocated.
  constexpr std::uint64_t kMaxDim = 1u << 20;
  ml::MlpConfig c;
  c.input = r.u64();
  const std::uint64_t hidden = r.u64();
  if (!r.ok() || hidden > 64) return Status::error("mlp: corrupt hidden-layer count");
  c.hidden.clear();
  for (std::uint64_t i = 0; i < hidden; ++i) c.hidden.push_back(r.u64());
  c.output = r.u64();
  const std::uint8_t activation = r.u8();
  if (activation > static_cast<std::uint8_t>(ml::Activation::kRelu)) {
    return Status::error("mlp: unknown activation");
  }
  c.activation = static_cast<ml::Activation>(activation);
  c.init_stddev_scale = r.f64();
  if (c.input == 0 || c.output == 0) return Status::error("mlp: zero-width layer");
  std::vector<std::uint64_t> dims;
  dims.push_back(c.input);
  dims.insert(dims.end(), c.hidden.begin(), c.hidden.end());
  dims.push_back(c.output);
  std::uint64_t expected = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    if (dims[l] == 0 || dims[l] > kMaxDim || dims[l + 1] > kMaxDim) {
      return Status::error("mlp: layer width out of range");
    }
    expected += (dims[l] + 1) * dims[l + 1];  // weights + bias row
  }
  const std::vector<double> flat = r.f64_vec();  // count bounded by blob size
  if (!r.ok()) return Status::error("mlp: truncated blob");
  // Validate the parameter count arithmetically BEFORE constructing the net:
  // a corrupt shape must fail cleanly, not allocate petabyte matrices.
  if (flat.size() != expected) {
    return Status::error(strf("mlp: parameter count mismatch (blob %zu, shape %llu)", flat.size(),
                              static_cast<unsigned long long>(expected)));
  }
  ml::Mlp net(c);
  net.assign(flat);
  return net;
}

void write_forest(ByteWriter& w, const ml::RandomForest& forest) {
  const ml::ForestConfig& c = forest.config();
  w.i32(c.num_trees);
  w.i32(c.max_depth);
  w.i32(c.min_samples_leaf);
  w.i32(c.features_per_split);
  w.u64(c.seed);
  w.f64_vec(forest.feature_importances());
  w.u64(forest.trees().size());
  for (const auto& tree : forest.trees()) {
    w.u64(tree.nodes().size());
    for (const auto& node : tree.nodes()) {
      w.i32(node.feature);
      w.f64(node.threshold);
      w.f64(node.prob_one);
      w.i32(node.left);
      w.i32(node.right);
    }
  }
}

Result<ml::RandomForest> read_forest(ByteReader& r) {
  ml::ForestConfig c;
  c.num_trees = r.i32();
  c.max_depth = r.i32();
  c.min_samples_leaf = r.i32();
  c.features_per_split = r.i32();
  c.seed = r.u64();
  std::vector<double> importances = r.f64_vec();
  const std::uint64_t num_trees = r.u64();
  if (!r.ok() || num_trees > (1u << 20)) return Status::error("forest: corrupt tree count");
  std::vector<ml::DecisionTree> trees;
  trees.reserve(num_trees);
  for (std::uint64_t t = 0; t < num_trees; ++t) {
    const std::uint64_t num_nodes = r.u64();
    if (!r.ok() || num_nodes > (1u << 26)) return Status::error("forest: corrupt node count");
    std::vector<ml::DecisionTree::Node> nodes;
    nodes.reserve(num_nodes);
    for (std::uint64_t n = 0; n < num_nodes; ++n) {
      ml::DecisionTree::Node node;
      node.feature = r.i32();
      node.threshold = r.f64();
      node.prob_one = r.f64();
      node.left = r.i32();
      node.right = r.i32();
      const int count = static_cast<int>(num_nodes);
      const int self = static_cast<int>(n);
      if (node.feature < -1 || node.feature >= (1 << 20)) {
        return Status::error("forest: node feature index out of range");
      }
      if (node.feature >= 0) {
        // Internal node: the builder always appends children after their
        // parent, so requiring self < child < count also rules out the
        // cycles and negative indices that would hang or crash predict().
        if (node.left <= self || node.left >= count || node.right <= self ||
            node.right >= count) {
          return Status::error("forest: node child index out of range");
        }
      } else if (node.left != -1 || node.right != -1) {
        return Status::error("forest: leaf with children");
      }
      nodes.push_back(node);
    }
    trees.push_back(ml::DecisionTree::from_nodes(std::move(nodes)));
  }
  if (!r.ok()) return Status::error("forest: truncated blob");
  return ml::RandomForest::from_parts(c, std::move(trees), std::move(importances));
}

void write_normalizer(ByteWriter& w, const FeatureNormalizer& normalizer) {
  w.f64_vec(normalizer.mean);
  w.f64_vec(normalizer.inv_std);
}

Result<FeatureNormalizer> read_normalizer(ByteReader& r) {
  FeatureNormalizer n;
  n.mean = r.f64_vec();
  n.inv_std = r.f64_vec();
  if (!r.ok()) return Status::error("normalizer: truncated blob");
  if (n.mean.size() != n.inv_std.size()) {
    return Status::error("normalizer: mean/inv_std size mismatch");
  }
  return n;
}

// ---------------------------------------------------------------------------
// Artifact framing
// ---------------------------------------------------------------------------

std::string serialize_artifact(const PolicyArtifact& artifact) {
  // Optional sections (format v2). An artifact with none serializes as v1,
  // so pre-v2 blobs and their checksums are reproduced bit-identically and
  // replication across mixed-version fleets keeps converging.
  const bool has_sections = !artifact.baselines.empty();
  return write_envelope(kMagic, has_sections ? kFormatVersion : 1, [&](ByteWriter& payload) {
    payload.str(artifact.name);
    payload.u32(artifact.version);
    payload.i32(artifact.spec.episode_length);
    payload.u8(static_cast<std::uint8_t>(artifact.spec.observation));
    payload.u8(static_cast<std::uint8_t>(artifact.spec.normalization));
    payload.u8(artifact.spec.include_terminate ? 1 : 0);
    payload.u8(artifact.spec.log_reward ? 1 : 0);
    payload.i32_vec(artifact.spec.feature_subset);
    payload.i32_vec(artifact.spec.action_subset);
    payload.u64(artifact.action_groups);
    payload.u64(artifact.action_arity);
    write_mlp(payload, artifact.policy);
    payload.u8(artifact.value.has_value() ? 1 : 0);
    if (artifact.value) write_mlp(payload, *artifact.value);
    payload.u8(artifact.forest.has_value() ? 1 : 0);
    if (artifact.forest) write_forest(payload, *artifact.forest);
    write_normalizer(payload, artifact.normalizer);
    if (!has_sections) return;
    payload.u32(1);  // section count: the baselines are the only section
    payload.u32(static_cast<std::uint32_t>(ArtifactSection::kCorpusBaselines));
    // Length-prefixed: readers skip section tags they do not know.
    payload.prefixed([&](ByteWriter& section) { write_baselines_section(section, artifact); });
  });
}

Result<PolicyArtifact> deserialize_artifact(std::string_view bytes) {
  auto envelope = read_envelope(bytes, kMagic, kFormatVersion, "artifact");
  if (!envelope.is_ok()) return envelope.status();
  const std::uint32_t format = envelope.value().version;
  ByteReader p(envelope.value().payload);
  std::string name = p.str();
  const std::uint32_t version = p.u32();
  ObservationSpec spec;
  spec.episode_length = p.i32();
  const std::uint8_t observation = p.u8();
  const std::uint8_t normalization = p.u8();
  if (observation > static_cast<std::uint8_t>(rl::ObservationMode::kBoth) ||
      normalization > static_cast<std::uint8_t>(rl::NormalizationMode::kInstCountRatio)) {
    return Status::error("artifact: unknown observation/normalization mode");
  }
  spec.observation = static_cast<rl::ObservationMode>(observation);
  spec.normalization = static_cast<rl::NormalizationMode>(normalization);
  spec.include_terminate = p.u8() != 0;
  spec.log_reward = p.u8() != 0;
  spec.feature_subset = p.i32_vec();
  spec.action_subset = p.i32_vec();
  const std::uint64_t groups = p.u64();
  const std::uint64_t arity = p.u64();
  if (!p.ok()) return Status::error("artifact: truncated header");

  auto policy = read_mlp(p);
  if (!policy.is_ok()) return Status::error("artifact policy: " + policy.message());

  PolicyArtifact artifact{.name = std::move(name),
                          .version = version,
                          .spec = std::move(spec),
                          .action_groups = groups,
                          .action_arity = arity,
                          .policy = std::move(policy).value(),
                          .value = std::nullopt,
                          .forest = std::nullopt,
                          .normalizer = {},
                          .baselines = {}};
  if (p.u8() != 0) {
    auto value = read_mlp(p);
    if (!value.is_ok()) return Status::error("artifact value: " + value.message());
    artifact.value = std::move(value).value();
  }
  if (p.u8() != 0) {
    auto forest = read_forest(p);
    if (!forest.is_ok()) return Status::error("artifact forest: " + forest.message());
    artifact.forest = std::move(forest).value();
  }
  auto normalizer = read_normalizer(p);
  if (!normalizer.is_ok()) return Status::error("artifact: " + normalizer.message());
  artifact.normalizer = std::move(normalizer).value();
  if (format >= 2) {
    const std::uint32_t sections = p.u32();
    if (!p.ok() || sections > 64) return Status::error("artifact: corrupt section count");
    for (std::uint32_t s = 0; s < sections; ++s) {
      const std::uint32_t tag = p.u32();
      const std::string_view section = p.str_view();
      if (!p.ok()) return Status::error("artifact: truncated section table");
      switch (static_cast<ArtifactSection>(tag)) {
        case ArtifactSection::kCorpusBaselines: {
          if (const Status s = read_baselines_section(section, artifact); !s.is_ok()) return s;
          break;
        }
        default:
          break;  // an unknown optional section from a newer writer: skip
      }
    }
  }
  if (!p.ok() || !p.at_end()) return Status::error("artifact: trailing garbage in payload");
  if (const Status valid = validate_artifact(artifact); !valid.is_ok()) return valid;
  return artifact;
}

Status save_artifact_file(const PolicyArtifact& artifact, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::error("cannot open for writing: " + path);
  const std::string bytes = serialize_artifact(artifact);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::error("write failed: " + path);
  return Status::ok();
}

Result<PolicyArtifact> load_artifact_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::error("cannot open for reading: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) return Status::error("read failed: " + path);
  return deserialize_artifact(bytes);
}

}  // namespace autophase::serve
