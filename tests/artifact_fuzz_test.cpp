// Seeded mutation fuzz of the artifact reader: freshly saved small
// artifacts are mutated — bit flips, byte runs, boundary integers,
// truncations, section-table offset/length tampering and aligned-pad
// tampering — and every mutant goes through both load paths
// (load_artifact and load_artifact_mapped), which must either load it or
// throw CheckError. Any other exception fails the test; a crash or a
// sanitizer report is a reader bug, fixed in the reader. The seed and the
// budget are fixed, so every run replays the same mutants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "artifact/format.hpp"
#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace tinyadc::artifact {
namespace {

constexpr std::uint64_t kSeed = 0x7AD0F022;
constexpr int kMutantsPerBase = 1500;

/// A freshly saved tiny CP-pruned resnet18 artifact (16×16 crossbars, with
/// PRUNE provenance) under `mcfg`, returned as its file bytes.
std::vector<char> fresh_artifact(const msim::MsimConfig& mcfg,
                                 const std::string& path) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.03125F;
  auto model = nn::build_model("resnet18", mc);
  ArtifactMeta meta;
  meta.arch = "resnet18";
  meta.model_name = model->name();
  meta.model_config = mc;

  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_size = 8;
  spec.train_per_class = 4;
  spec.test_per_class = 1;
  spec.seed = 5;
  const auto data = data::make_synthetic(spec);

  const core::CrossbarDims dims{16, 16};
  const auto specs = core::uniform_cp_specs(*model, 4, dims, {});
  auto views = model->prunable_views();
  for (std::size_t i = 0; i < views.size(); ++i) {
    Tensor m = views[i].to_matrix();
    core::project_combined({m.data(), views[i].rows, views[i].cols},
                           specs[i], dims);
    views[i].from_matrix(m);
  }
  xbar::MappingConfig cfg;
  cfg.dims = {16, 16};
  const auto net = xbar::map_model(*model, cfg);
  msim::AnalogNetwork analog(*model, net, mcfg);
  analog.calibrate(data.train, 4);
  save_artifact(path, ArtifactInputs{meta, *model, net, analog, specs, {}});

  std::ifstream is(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

struct Section {
  std::string tag;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// The section table of a well-formed artifact.
std::vector<Section> sections_of(const std::vector<char>& bytes) {
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::vector<Section> out(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* e = bytes.data() + 16 + static_cast<std::size_t>(i) * 24;
    out[i].tag.assign(e, strnlen(e, 8));
    std::memcpy(&out[i].offset, e + 8, sizeof(out[i].offset));
    std::memcpy(&out[i].length, e + 16, sizeof(out[i].length));
  }
  return out;
}

/// Deterministic mutator over one base artifact. Draws use raw 64-bit
/// engine output (std::mt19937_64 is fully specified), never a library
/// distribution, so the mutant sequence is the same on every toolchain.
class Mutator {
 public:
  Mutator(const std::vector<char>& base, std::uint64_t seed)
      : base_(base), sections_(sections_of(base)), rng_(seed) {}

  std::vector<char> next() {
    std::vector<char> b = base_;
    switch (below(6)) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>(below(8));
        for (int i = 0; i < flips; ++i)
          b[position(b.size())] ^= static_cast<char>(1U << below(8));
        break;
      }
      case 1: {  // a run of one byte value
        const std::size_t at = position(b.size());
        const std::size_t len = std::min<std::size_t>(1 + below(64),
                                                      b.size() - at);
        const char fills[] = {'\0', '\xFF', static_cast<char>(below(256))};
        std::memset(b.data() + at, fills[below(3)], len);
        break;
      }
      case 2: {  // a boundary integer over an aligned count or field
        const std::uint64_t values[] = {0,
                                        1,
                                        0x7FFFFFFF,
                                        0xFFFFFFFF,
                                        1ULL << 32,
                                        1ULL << 62,
                                        ~0ULL,
                                        b.size(),
                                        below(1ULL << 20)};
        const std::uint64_t v = values[below(std::size(values))];
        const std::size_t width = below(2) == 0 ? 4 : 8;
        const std::size_t at = position(b.size()) / width * width;
        if (at + width <= b.size()) std::memcpy(b.data() + at, &v, width);
        break;
      }
      case 3:  // truncation
        b.resize(below(b.size()));
        break;
      case 4:  // section-table offset / length tampering
        tamper_table(b);
        break;
      default:  // non-zero byte in an alignment pad
        tamper_pad(b);
        break;
    }
    return b;
  }

 private:
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : rng_() % n; }

  /// A byte position, biased towards the header, the section table and
  /// the small structural sections, where one byte decides the most.
  std::size_t position(std::size_t size) {
    if (below(4) == 0) return static_cast<std::size_t>(below(size));
    const Section& s = sections_[below(sections_.size())];
    if (below(3) == 0 || s.length == 0)
      return static_cast<std::size_t>(
          below(std::min<std::uint64_t>(size, 16 + sections_.size() * 24)));
    return static_cast<std::size_t>(s.offset + below(s.length));
  }

  void tamper_table(std::vector<char>& b) {
    const std::size_t i = below(sections_.size());
    char* entry = b.data() + 16 + i * 24;
    char* field = entry + (below(2) == 0 ? 8 : 16);  // offset or length
    std::uint64_t v = 0;
    std::memcpy(&v, field, sizeof(v));
    switch (below(6)) {
      case 0: v += 8 * (1 + below(8)); break;
      case 1: v -= 8 * (1 + below(8)); break;
      case 2: v += 64; break;
      case 3: v = ~0ULL - below(128); break;
      case 4: v = below(b.size() + 128); break;
      default: {  // another entry's offset or length
        const Section& o = sections_[below(sections_.size())];
        v = below(2) == 0 ? o.offset : o.length;
        break;
      }
    }
    std::memcpy(field, &v, sizeof(v));
  }

  /// Sets one byte of the zero run that ends at a 64-byte file boundary —
  /// a vec_aligned pad or the gap before a section — to a non-zero value.
  void tamper_pad(std::vector<char>& b) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::size_t boundary =
          (position(b.size()) / kPayloadAlign + 1) * kPayloadAlign;
      if (boundary > b.size()) continue;
      std::size_t start = boundary;
      while (start > 0 && boundary - start < kPayloadAlign &&
             b[start - 1] == '\0')
        --start;
      if (start == boundary) continue;
      b[start + below(boundary - start)] =
          static_cast<char>(1 + below(255));
      return;
    }
    b[position(b.size())] ^= '\x01';
  }

  const std::vector<char>& base_;
  std::vector<Section> sections_;
  std::mt19937_64 rng_;
};

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loads `path` through one load path. Returns true when it loaded, false
/// on CheckError; any other exception is a test failure.
bool load_or_check_error(const std::string& path, bool mapped,
                         const std::string& what) {
  try {
    Deployment dep = mapped ? load_artifact_mapped(path, /*async_stream=*/true)
                            : load_artifact(path);
    dep.finish_streaming();
    return true;
  } catch (const CheckError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " (mapped=" << mapped
                  << "): non-CheckError exception: " << e.what();
  }
  return false;
}

TEST(ArtifactFuzz, EveryMutantLoadsOrThrowsCheckError) {
  msim::MsimConfig nonideal;
  nonideal.variation_sigma = 0.1;
  nonideal.ir_drop_alpha = 0.3;
  const msim::MsimConfig bases[] = {msim::MsimConfig{}, nonideal};
  const std::string base_path = "artifact_fuzz_base_tmp.tadc";
  const std::string path = "artifact_fuzz_mutant_tmp.tadc";

  int loaded = 0, rejected = 0;
  std::size_t bytes = 0;
  for (std::size_t bi = 0; bi < std::size(bases); ++bi) {
    const auto base = fresh_artifact(bases[bi], base_path);
    ASSERT_GT(base.size(), 1024U);
    bytes += base.size();
    ASSERT_TRUE(load_or_check_error(base_path, false, "base"));
    ASSERT_TRUE(load_or_check_error(base_path, true, "base"));

    Mutator mutator(base, kSeed + bi);
    for (int m = 0; m < kMutantsPerBase; ++m) {
      const auto mutant = mutator.next();
      spit(path, mutant);
      const std::string what =
          "base " + std::to_string(bi) + " mutant " + std::to_string(m);
      const bool copied_ok = load_or_check_error(path, false, what);
      const bool mapped_ok = load_or_check_error(path, true, what);
      EXPECT_EQ(copied_ok, mapped_ok)
          << what << ": the two load paths disagree on validity";
      (copied_ok ? loaded : rejected) += 1;
      if (HasFailure()) return;  // report the first failing mutant only
    }
  }
  // Both outcomes occur, or the mutations are not reaching the reader.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::printf("%d mutants of %zu base bytes: %d loaded, %d rejected with "
              "CheckError\n",
              loaded + rejected, bytes, loaded, rejected);
  std::remove(base_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tinyadc::artifact
