#include "artifact/artifact.hpp"

#include <chrono>
#include <cmath>
#include <cstring>

#include <unistd.h>

#include "artifact/format.hpp"
#include "tensor/check.hpp"

namespace tinyadc::artifact {

namespace {

constexpr std::uint32_t kMetaSectionVersion = 1;
constexpr std::uint32_t kPruneSectionVersion = 1;
constexpr std::uint64_t kMaxLayers = 1ULL << 16;

const char kTagMeta[] = "META";
const char kTagWeights[] = "WEIGHTS";
const char kTagPrune[] = "PRUNE";
const char kTagMapping[] = "MAPPING";
const char kTagPlans[] = "PLANS";
const char kTagCalib[] = "CALIB";

void write_meta(const ArtifactMeta& meta, SectionWriter& w) {
  w.pod(kMetaSectionVersion);
  w.str(meta.arch);
  w.str(meta.model_name);
  w.pod(meta.model_config.num_classes);
  w.pod(meta.model_config.in_channels);
  w.pod(meta.model_config.image_size);
  w.pod(meta.model_config.width_mult);
  w.pod(static_cast<std::uint8_t>(meta.model_config.imagenet_stem ? 1 : 0));
  w.pod(meta.model_config.seed);
}

ArtifactMeta read_meta(SectionReader& r) {
  read_payload_version(r, kMetaSectionVersion);
  ArtifactMeta meta;
  meta.arch = r.str();
  meta.model_name = r.str();
  meta.model_config.num_classes = r.pod<std::int64_t>();
  meta.model_config.in_channels = r.pod<std::int64_t>();
  meta.model_config.image_size = r.pod<std::int64_t>();
  meta.model_config.width_mult = r.pod<float>();
  meta.model_config.imagenet_stem = r.pod<std::uint8_t>() != 0;
  meta.model_config.seed = r.pod<std::uint64_t>();
  TINYADC_CHECK(!meta.arch.empty(), "META section has an empty architecture");
  TINYADC_CHECK(meta.model_config.num_classes > 0 &&
                    meta.model_config.num_classes <= (1 << 20),
                "META section has " << meta.model_config.num_classes
                                    << " classes");
  TINYADC_CHECK(meta.model_config.in_channels > 0 &&
                    meta.model_config.in_channels <= (1 << 16),
                "META section has " << meta.model_config.in_channels
                                    << " input channels");
  TINYADC_CHECK(meta.model_config.image_size > 0 &&
                    meta.model_config.image_size <= (1 << 16),
                "META section has image size "
                    << meta.model_config.image_size);
  TINYADC_CHECK(std::isfinite(meta.model_config.width_mult) &&
                    meta.model_config.width_mult > 0.0F,
                "META section has a non-positive width multiplier");
  TINYADC_CHECK(r.remaining() == 0, "trailing bytes after the META section");
  return meta;
}

void write_prune(const std::vector<core::LayerPruneSpec>& specs,
                 const std::vector<core::StructuralSelection>& selections,
                 SectionWriter& w) {
  w.pod(kPruneSectionVersion);
  w.pod(static_cast<std::uint64_t>(specs.size()));
  for (const auto& spec : specs) core::serialize(spec, w);
  w.pod(static_cast<std::uint64_t>(selections.size()));
  for (const auto& sel : selections) core::serialize(sel, w);
}

void read_prune(SectionReader& r, std::vector<core::LayerPruneSpec>& specs,
                std::vector<core::StructuralSelection>& selections) {
  read_payload_version(r, kPruneSectionVersion);
  const auto nspecs = r.pod<std::uint64_t>();
  TINYADC_CHECK(nspecs <= kMaxLayers,
                "PRUNE section claims " << nspecs << " specs");
  specs.reserve(static_cast<std::size_t>(nspecs));
  for (std::uint64_t i = 0; i < nspecs; ++i)
    specs.push_back(core::deserialize_prune_spec(r));
  const auto nsel = r.pod<std::uint64_t>();
  TINYADC_CHECK(nsel <= kMaxLayers,
                "PRUNE section claims " << nsel << " selections");
  selections.reserve(static_cast<std::size_t>(nsel));
  for (std::uint64_t i = 0; i < nsel; ++i)
    selections.push_back(core::deserialize_selection(r));
  TINYADC_CHECK(r.remaining() == 0, "trailing bytes after the PRUNE section");
}

/// Shared body of both save overloads — one code path, so a freshly built
/// deployment and a reloaded one serialize to identical bytes.
void write_artifact(const std::string& path, const ArtifactMeta& meta,
                    const std::vector<core::LayerPruneSpec>& specs,
                    const std::vector<core::StructuralSelection>& selections,
                    nn::Model& model, const xbar::MappedNetwork& mapping,
                    const msim::AnalogNetwork& analog) {
  TINYADC_CHECK(analog.calibrated(),
                "save_artifact requires a calibrated analog network");
  ArtifactWriter writer(path);
  write_meta(meta, writer.section(kTagMeta));
  model.serialize(writer.section(kTagWeights));
  if (!specs.empty() || !selections.empty())
    write_prune(specs, selections, writer.section(kTagPrune));
  xbar::serialize(mapping, writer.section(kTagMapping));
  analog.serialize_plans(writer.section(kTagPlans));
  analog.serialize_calibration(writer.section(kTagCalib));
  writer.finish();
}

}  // namespace

void save_artifact(const std::string& path, const ArtifactInputs& inputs) {
  write_artifact(path, inputs.meta, inputs.specs, inputs.selections,
                 inputs.model, inputs.mapping, inputs.analog);
}

void save_artifact(const std::string& path, const Deployment& deployment) {
  TINYADC_CHECK(deployment.model && deployment.mapping && deployment.analog,
                "save_artifact on an incomplete deployment");
  write_artifact(path, deployment.meta, deployment.specs,
                 deployment.selections, *deployment.model, *deployment.mapping,
                 *deployment.analog);
}

namespace {

/// Section restoration shared by the copied and mapped load paths. On a
/// mapped ArtifactFile the MAPPING code grids and PLANS streams come back
/// as zero-copy spans (the SectionReaders carry the mapping's keeper); on a
/// copied file the identical code restores owned vectors.
Deployment load_from(const ArtifactFile& file, const std::string& path) {
  for (const char* tag : {kTagMeta, kTagWeights, kTagMapping, kTagPlans,
                          kTagCalib})
    TINYADC_CHECK(file.has(tag),
                  "artifact " << path << " is missing the required " << tag
                              << " section");

  Deployment dep;
  {
    auto r = file.section(kTagMeta);
    dep.meta = read_meta(r);
  }
  // Hot sections first: the mapped load's async streamer pages the cold
  // sections (WEIGHTS, PRUNE, CALIB) in behind this validation pass, so by
  // the time deserialize_state runs its pages are (mostly) resident. The
  // order is irrelevant to the copied path — sections are independent.
  {
    auto r = file.section(kTagMapping);
    dep.mapping = std::make_unique<xbar::MappedNetwork>(
        xbar::deserialize_mapped_network(r));
    TINYADC_CHECK(r.remaining() == 0,
                  "trailing bytes after the MAPPING section");
  }
  dep.model = nn::build_model(dep.meta.arch, dep.meta.model_config);
  TINYADC_CHECK(dep.model->name() == dep.meta.model_name,
                "META names model '" << dep.meta.model_name
                                     << "' but architecture '" << dep.meta.arch
                                     << "' builds '" << dep.model->name()
                                     << "'");
  {
    auto r = file.section(kTagWeights);
    dep.model->deserialize_state(r);
    TINYADC_CHECK(r.remaining() == 0,
                  "trailing bytes after the WEIGHTS section");
  }
  if (file.has(kTagPrune)) {
    auto r = file.section(kTagPrune);
    read_prune(r, dep.specs, dep.selections);
  }
  auto plans = file.section(kTagPlans);
  auto calib = file.section(kTagCalib);
  dep.analog = std::make_unique<msim::AnalogNetwork>(*dep.model, *dep.mapping,
                                                     plans, calib);
  return dep;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over raw bytes, chained through `h`. Local copy (serve::fnv1a is
/// a layer above this library; the constants are the standard 64-bit ones,
/// so the digests agree with the serving stack's).
std::uint64_t fnv1a_bytes(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fills Deployment::info from the validated file. Digests the hot
/// sections only — see ArtifactInfo's doc for why the cold sections are
/// deliberately excluded.
ArtifactInfo make_info(const ArtifactFile& file, const std::string& path) {
  ArtifactInfo info;
  info.path = path;
  info.container_version = file.version();
  info.file_bytes = file.file_size();
  std::uint64_t h = 1469598103934665603ULL;
  for (const char* tag : {kTagMeta, kTagMapping, kTagPlans}) {
    const auto [data, size] = file.raw(tag);
    h = fnv1a_bytes(tag, std::strlen(tag), h);
    h = fnv1a_bytes(data, size, h);
  }
  info.content_digest = h;
  return info;
}

}  // namespace

SectionStreamer::SectionStreamer(
    std::shared_ptr<MappedFile> map,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents)
    : map_(std::move(map)), extents_(std::move(extents)) {
  thread_ = std::thread([this] {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [off, len] : extents_)
      map_->advise_willneed(off, len);
    // MADV_WILLNEED is only a hint; touching one byte per page forces the
    // pages resident. Reads only — the mapping is PROT_READ anyway — and
    // the XOR sink keeps the loop from being optimized away.
    const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    const char* base = map_->data();
    const std::uint64_t file_size = map_->size();
    unsigned char sink = 0;
    for (const auto& [off, len] : extents_) {
      const std::uint64_t end = std::min(off + len, file_size);
      for (std::uint64_t p = off; p < end; p += page)
        sink ^= static_cast<unsigned char>(base[p]);
      if (end > off) sink ^= static_cast<unsigned char>(base[end - 1]);
    }
    volatile unsigned char guard = sink;
    (void)guard;
    elapsed_ms_ = ms_since(t0);
  });
}

SectionStreamer::~SectionStreamer() {
  if (thread_.joinable()) thread_.join();
}

double SectionStreamer::wait_ms() {
  if (thread_.joinable()) thread_.join();
  return elapsed_ms_;
}

void Deployment::finish_streaming() {
  if (streamer != nullptr) {
    load_phases.stream_ms = streamer->wait_ms();
    streamer.reset();
  }
}

namespace {
const char* const kColdTags[] = {kTagWeights, kTagPrune, kTagCalib};
}  // namespace

Deployment load_artifact(const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  ArtifactFile file(path);
  const double map_ms = ms_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  Deployment dep = load_from(file, path);
  dep.info = make_info(file, path);
  dep.load_phases.map_ms = map_ms;
  dep.load_phases.validate_ms = ms_since(t1);
  return dep;
}

Deployment load_artifact_mapped(const std::string& path, bool async_stream) {
  const auto t0 = std::chrono::steady_clock::now();
  auto map = MappedFile::open(path);
  ArtifactFile file(map);
  const double map_ms = ms_since(t0);
  const auto t1 = std::chrono::steady_clock::now();

  // Kick the cold sections' page-in off before the hot-section validation
  // pass, so the two overlap (the staged cold-start's io stage).
  std::shared_ptr<SectionStreamer> streamer;
  if (async_stream) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    for (const char* tag : kColdTags)
      if (file.has(tag)) extents.push_back(file.extent(tag));
    streamer =
        std::make_shared<SectionStreamer>(map, std::move(extents));
  }

  Deployment dep = load_from(file, path);
  dep.info = make_info(file, path);
  dep.mapped = std::move(map);
  dep.streamer = std::move(streamer);
  dep.load_phases.map_ms = map_ms;
  dep.load_phases.validate_ms = ms_since(t1);
  return dep;
}

}  // namespace tinyadc::artifact
