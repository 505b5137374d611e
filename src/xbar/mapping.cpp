#include "xbar/mapping.hpp"

#include <algorithm>

#include "artifact/format.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::xbar {

namespace {

// MAPPING v2: block codes as vec_aligned() arrays so a mapped load views
// them in place. The one version this build reads and writes.
constexpr std::uint32_t kMappingSectionVersion = 2;

void serialize_config(const MappingConfig& cfg, artifact::SectionWriter& w) {
  w.pod(cfg.dims.rows);
  w.pod(cfg.dims.cols);
  w.pod(static_cast<std::int32_t>(cfg.weight_bits));
  w.pod(static_cast<std::int32_t>(cfg.cell_bits));
  w.pod(static_cast<std::int32_t>(cfg.input_bits));
  w.pod(static_cast<std::int32_t>(cfg.dac_bits));
  w.pod(static_cast<std::uint8_t>(cfg.isaac_encoding ? 1 : 0));
}

MappingConfig deserialize_config(artifact::SectionReader& r) {
  MappingConfig cfg;
  cfg.dims.rows = r.pod<std::int64_t>();
  cfg.dims.cols = r.pod<std::int64_t>();
  cfg.weight_bits = r.pod<std::int32_t>();
  cfg.cell_bits = r.pod<std::int32_t>();
  cfg.input_bits = r.pod<std::int32_t>();
  cfg.dac_bits = r.pod<std::int32_t>();
  cfg.isaac_encoding = r.pod<std::uint8_t>() != 0;
  TINYADC_CHECK(cfg.dims.rows > 0 && cfg.dims.cols > 0 &&
                    cfg.dims.rows <= (1 << 20) && cfg.dims.cols <= (1 << 20),
                "implausible crossbar dims " << cfg.dims.rows << "x"
                                             << cfg.dims.cols);
  TINYADC_CHECK(cfg.weight_bits >= 2 && cfg.weight_bits <= 16 &&
                    cfg.cell_bits >= 1 && cfg.cell_bits <= 8 &&
                    cfg.input_bits >= 1 && cfg.input_bits <= 16 &&
                    cfg.dac_bits >= 1 && cfg.dac_bits <= cfg.input_bits,
                "implausible mapping precision configuration");
  return cfg;
}

/// Strictly-ascending kept-index map confined to [0, extent).
void check_kept(const std::vector<std::int64_t>& kept, std::int64_t extent,
                const std::string& layer, const char* what) {
  for (std::size_t i = 0; i < kept.size(); ++i)
    TINYADC_CHECK(kept[i] >= 0 && kept[i] < extent &&
                      (i == 0 || kept[i - 1] < kept[i]),
                  "layer " << layer << ": corrupt kept_" << what
                           << " index map");
}

void serialize_layer(const MappedLayer& layer, artifact::SectionWriter& w) {
  w.str(layer.name);
  w.pod(layer.rows);
  w.pod(layer.cols);
  w.pod(static_cast<std::int32_t>(layer.quant.bits));
  w.pod(layer.quant.scale);
  w.vec(layer.kept_rows);
  w.vec(layer.kept_cols);
  w.pod(layer.block_grid_rows);
  w.pod(layer.block_grid_cols);
  w.pod(static_cast<std::uint64_t>(layer.blocks.size()));
  for (const auto& b : layer.blocks) {
    w.pod(b.row0);
    w.pod(b.col0);
    w.pod(b.rows);
    w.pod(b.cols);
    w.vec_aligned(b.q);
    w.vec(b.col_nonzeros);
    w.pod(b.max_col_nonzeros);
  }
}

MappedLayer deserialize_layer(artifact::SectionReader& r,
                              const MappingConfig& config) {
  MappedLayer layer;
  layer.config = config;
  layer.name = r.str();
  layer.rows = r.pod<std::int64_t>();
  layer.cols = r.pod<std::int64_t>();
  TINYADC_CHECK(layer.rows >= 0 && layer.cols >= 0,
                "layer " << layer.name << ": negative matrix extent");
  layer.quant.bits = r.pod<std::int32_t>();
  layer.quant.scale = r.pod<float>();
  TINYADC_CHECK(layer.quant.bits == config.weight_bits,
                "layer " << layer.name << ": quantizer bits "
                         << layer.quant.bits << " != mapping weight bits "
                         << config.weight_bits);
  layer.kept_rows = r.vec<std::int64_t>();
  layer.kept_cols = r.vec<std::int64_t>();
  check_kept(layer.kept_rows, layer.rows, layer.name, "rows");
  check_kept(layer.kept_cols, layer.cols, layer.name, "cols");
  const auto compact_rows = static_cast<std::int64_t>(layer.kept_rows.size());
  const auto compact_cols = static_cast<std::int64_t>(layer.kept_cols.size());
  layer.block_grid_rows = r.pod<std::int64_t>();
  layer.block_grid_cols = r.pod<std::int64_t>();
  TINYADC_CHECK(layer.block_grid_rows ==
                        (compact_rows + config.dims.rows - 1) /
                            config.dims.rows &&
                    layer.block_grid_cols ==
                        (compact_cols + config.dims.cols - 1) /
                            config.dims.cols,
                "layer " << layer.name
                         << ": block grid disagrees with the reform geometry");
  const auto nblocks = r.pod<std::uint64_t>();
  TINYADC_CHECK(nblocks == static_cast<std::uint64_t>(layer.block_grid_rows *
                                                      layer.block_grid_cols),
                "layer " << layer.name << ": block count " << nblocks
                         << " != grid "
                         << layer.block_grid_rows * layer.block_grid_cols);
  const std::int32_t max_code = (1 << (config.weight_bits - 1)) - 1;
  layer.blocks.reserve(static_cast<std::size_t>(nblocks));
  for (std::uint64_t i = 0; i < nblocks; ++i) {
    const std::int64_t br = static_cast<std::int64_t>(i) /
                            layer.block_grid_cols;
    const std::int64_t bc = static_cast<std::int64_t>(i) %
                            layer.block_grid_cols;
    CrossbarBlock b;
    b.row0 = r.pod<std::int64_t>();
    b.col0 = r.pod<std::int64_t>();
    b.rows = r.pod<std::int64_t>();
    b.cols = r.pod<std::int64_t>();
    TINYADC_CHECK(b.row0 == br * config.dims.rows &&
                      b.col0 == bc * config.dims.cols &&
                      b.rows == std::min(config.dims.rows,
                                         compact_rows - b.row0) &&
                      b.cols == std::min(config.dims.cols,
                                         compact_cols - b.col0),
                  "layer " << layer.name << ": block " << i
                           << " geometry disagrees with the grid");
    b.q = r.arr_aligned<std::int32_t>("block codes");
    TINYADC_CHECK(b.q.size() == static_cast<std::size_t>(b.rows * b.cols),
                  "layer " << layer.name << ": block " << i << " holds "
                           << b.q.size() << " codes, expected "
                           << b.rows * b.cols);
    for (const auto q : b.q)
      TINYADC_CHECK(q >= -max_code && q <= max_code,
                    "layer " << layer.name << ": code " << q << " exceeds "
                             << config.weight_bits << "-bit signed range");
    b.col_nonzeros = r.vec<std::int64_t>();
    b.max_col_nonzeros = r.pod<std::int64_t>();
    // Re-derive the census rather than trusting stored values: the plan
    // compiler and Eq. 1 ADC sizing both consume it.
    TINYADC_CHECK(b.col_nonzeros.size() == static_cast<std::size_t>(b.cols),
                  "layer " << layer.name << ": block " << i
                           << " census length mismatch");
    std::int64_t worst = 0;
    for (std::int64_t c = 0; c < b.cols; ++c) {
      std::int64_t nz = 0;
      for (std::int64_t row = 0; row < b.rows; ++row)
        nz += (b.at(row, c) != 0);
      TINYADC_CHECK(b.col_nonzeros[static_cast<std::size_t>(c)] == nz,
                    "layer " << layer.name << ": block " << i
                             << " stored census disagrees with the codes");
      worst = std::max(worst, nz);
    }
    TINYADC_CHECK(b.max_col_nonzeros == worst,
                  "layer " << layer.name << ": block " << i
                           << " stored worst occupancy disagrees");
    layer.blocks.push_back(std::move(b));
  }
  return layer;
}

}  // namespace

void serialize(const MappedNetwork& net, artifact::SectionWriter& w) {
  w.pod(kMappingSectionVersion);
  serialize_config(net.config, w);
  w.pod(static_cast<std::uint64_t>(net.layers.size()));
  for (const auto& layer : net.layers) serialize_layer(layer, w);
}

MappedNetwork deserialize_mapped_network(artifact::SectionReader& r) {
  artifact::read_payload_version(r, kMappingSectionVersion);
  MappedNetwork net;
  net.config = deserialize_config(r);
  const auto count = r.pod<std::uint64_t>();
  TINYADC_CHECK(count <= (1ULL << 16),
                "implausible mapped-layer count " << count);
  net.layers.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i)
    net.layers.push_back(deserialize_layer(r, net.config));
  return net;
}

bool CrossbarBlock::all_zero() const {
  return std::all_of(q.begin(), q.end(),
                     [](std::int32_t v) { return v == 0; });
}

std::int64_t MappedLayer::active_blocks() const {
  std::int64_t n = 0;
  for (const auto& b : blocks) n += !b.all_zero();
  return n;
}

std::int64_t MappedLayer::max_active_rows() const {
  std::int64_t worst = 0;
  for (const auto& b : blocks)
    worst = std::max(worst, b.max_col_nonzeros);
  return worst;
}

std::int64_t MappedLayer::census_nonzeros() const {
  std::int64_t total = 0;
  for (const auto& b : blocks)
    for (const auto n : b.col_nonzeros) total += n;
  return total;
}

int MappedLayer::required_adc_bits() const {
  return xbar::required_adc_bits(config.dac_bits, config.cell_bits,
                                 max_active_rows());
}

int MappedLayer::design_adc_bits() const {
  return xbar::design_adc_bits(config, max_active_rows());
}

int design_adc_bits(const MappingConfig& config, std::int64_t active_rows) {
  const int bits =
      required_adc_bits(config.dac_bits, config.cell_bits, active_rows);
  if (config.isaac_encoding && bits > 1) return bits - 1;
  return bits;
}

std::int64_t MappedLayer::dense_blocks() const {
  const std::int64_t grid_rows =
      (rows + config.dims.rows - 1) / config.dims.rows;
  const std::int64_t grid_cols =
      (cols + config.dims.cols - 1) / config.dims.cols;
  return grid_rows * grid_cols;
}

Tensor MappedLayer::demap() const {
  Tensor m({rows, cols});
  float* p = m.data();
  for (const auto& b : blocks) {
    for (std::int64_t r = 0; r < b.rows; ++r)
      for (std::int64_t c = 0; c < b.cols; ++c) {
        const std::int64_t orig_r =
            kept_rows[static_cast<std::size_t>(b.row0 + r)];
        const std::int64_t orig_c =
            kept_cols[static_cast<std::size_t>(b.col0 + c)];
        p[orig_r * cols + orig_c] = dequantize(b.at(r, c), quant);
      }
  }
  return m;
}

StructuralRemoval infer_removal(const Tensor& matrix, std::int64_t remove_rows,
                                std::int64_t remove_cols) {
  TINYADC_CHECK(matrix.ndim() == 2, "infer_removal expects a 2-D matrix");
  const std::int64_t rows = matrix.dim(0);
  const std::int64_t cols = matrix.dim(1);
  const float* m = matrix.data();
  StructuralRemoval removal;
  for (std::int64_t r = 0;
       r < rows && static_cast<std::int64_t>(removal.rows.size()) <
                       remove_rows;
       ++r) {
    bool all_zero = true;
    for (std::int64_t c = 0; c < cols && all_zero; ++c)
      all_zero = (m[r * cols + c] == 0.0F);
    if (all_zero) removal.rows.push_back(r);
  }
  for (std::int64_t c = 0;
       c < cols && static_cast<std::int64_t>(removal.cols.size()) <
                       remove_cols;
       ++c) {
    bool all_zero = true;
    for (std::int64_t r = 0; r < rows && all_zero; ++r)
      all_zero = (m[r * cols + c] == 0.0F);
    if (all_zero) removal.cols.push_back(c);
  }
  return removal;
}

MappedLayer map_matrix(const Tensor& matrix, const std::string& name,
                       const MappingConfig& config,
                       const StructuralRemoval& removal) {
  TINYADC_CHECK(matrix.ndim() == 2, "map_matrix expects a 2-D matrix");
  TINYADC_CHECK(config.dims.rows > 0 && config.dims.cols > 0,
                "invalid crossbar dims");
  MappedLayer layer;
  layer.name = name;
  layer.rows = matrix.dim(0);
  layer.cols = matrix.dim(1);
  layer.config = config;
  layer.quant = fit_signed(max_abs(matrix), config.weight_bits);

  // Reform: compact away exactly the structurally-pruned rows/columns.
  const float* m = matrix.data();
  {
    TINYADC_CHECK(std::is_sorted(removal.rows.begin(), removal.rows.end()) &&
                      std::is_sorted(removal.cols.begin(), removal.cols.end()),
                  "removal lists must be sorted");
    std::size_t cursor = 0;
    for (std::int64_t r = 0; r < layer.rows; ++r) {
      if (cursor < removal.rows.size() && removal.rows[cursor] == r) {
        for (std::int64_t c = 0; c < layer.cols; ++c)
          TINYADC_CHECK(m[r * layer.cols + c] == 0.0F,
                        "removed row " << r << " still holds live weights");
        ++cursor;
        continue;
      }
      layer.kept_rows.push_back(r);
    }
    cursor = 0;
    for (std::int64_t c = 0; c < layer.cols; ++c) {
      if (cursor < removal.cols.size() && removal.cols[cursor] == c) {
        for (std::int64_t r = 0; r < layer.rows; ++r)
          TINYADC_CHECK(m[r * layer.cols + c] == 0.0F,
                        "removed column " << c << " still holds live weights");
        ++cursor;
        continue;
      }
      layer.kept_cols.push_back(c);
    }
  }
  const auto compact_rows = static_cast<std::int64_t>(layer.kept_rows.size());
  const auto compact_cols = static_cast<std::int64_t>(layer.kept_cols.size());
  layer.block_grid_rows =
      (compact_rows + config.dims.rows - 1) / config.dims.rows;
  layer.block_grid_cols =
      (compact_cols + config.dims.cols - 1) / config.dims.cols;

  for (std::int64_t br = 0; br < layer.block_grid_rows; ++br) {
    for (std::int64_t bc = 0; bc < layer.block_grid_cols; ++bc) {
      CrossbarBlock block;
      block.row0 = br * config.dims.rows;
      block.col0 = bc * config.dims.cols;
      block.rows = std::min(config.dims.rows, compact_rows - block.row0);
      block.cols = std::min(config.dims.cols, compact_cols - block.col0);
      std::vector<std::int32_t> codes(
          static_cast<std::size_t>(block.rows * block.cols));
      for (std::int64_t r = 0; r < block.rows; ++r) {
        const std::int64_t orig_r =
            layer.kept_rows[static_cast<std::size_t>(block.row0 + r)];
        for (std::int64_t c = 0; c < block.cols; ++c) {
          const std::int64_t orig_c =
              layer.kept_cols[static_cast<std::size_t>(block.col0 + c)];
          codes[static_cast<std::size_t>(r * block.cols + c)] =
              quantize_signed(m[orig_r * layer.cols + orig_c], layer.quant);
        }
      }
      block.q = std::move(codes);
      block.col_nonzeros.assign(static_cast<std::size_t>(block.cols), 0);
      for (std::int64_t c = 0; c < block.cols; ++c) {
        std::int64_t nz = 0;
        for (std::int64_t r = 0; r < block.rows; ++r)
          nz += (block.at(r, c) != 0);
        block.col_nonzeros[static_cast<std::size_t>(c)] = nz;
        block.max_col_nonzeros = std::max(block.max_col_nonzeros, nz);
      }
      layer.blocks.push_back(std::move(block));
    }
  }
  return layer;
}

std::int64_t MappedNetwork::total_arrays() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.dense_blocks() * l.arrays_per_block();
  return n;
}

std::int64_t MappedNetwork::active_arrays() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.active_arrays();
  return n;
}

double MappedNetwork::crossbar_reduction() const {
  const std::int64_t total = total_arrays();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(active_arrays()) /
                   static_cast<double>(total);
}

int MappedNetwork::worst_adc_bits_after_first() const {
  int worst = 0;
  for (std::size_t i = 1; i < layers.size(); ++i)
    worst = std::max(worst, layers[i].required_adc_bits());
  return worst;
}

int MappedNetwork::worst_design_adc_bits_after_first() const {
  int worst = 0;
  for (std::size_t i = 1; i < layers.size(); ++i)
    worst = std::max(worst, layers[i].design_adc_bits());
  return worst;
}

MappedNetwork map_model(nn::Model& model, const MappingConfig& config) {
  MappedNetwork net;
  net.config = config;
  for (const auto& view : model.prunable_views())
    net.layers.push_back(
        map_matrix(view.to_matrix(), view.layer_name, config));
  return net;
}

MappedNetwork map_model(
    nn::Model& model, const MappingConfig& config,
    const std::vector<core::StructuralSelection>& selections) {
  const auto views = model.prunable_views();
  TINYADC_CHECK(selections.size() == views.size(),
                "selection count " << selections.size()
                                   << " != prunable layer count "
                                   << views.size());
  MappedNetwork net;
  net.config = config;
  for (std::size_t i = 0; i < views.size(); ++i) {
    StructuralRemoval removal;
    removal.rows = selections[i].rows;
    removal.cols = selections[i].cols;
    net.layers.push_back(map_matrix(views[i].to_matrix(),
                                    views[i].layer_name, config, removal));
  }
  return net;
}

MappedNetwork map_model(nn::Model& model, const MappingConfig& config,
                        const std::vector<core::LayerPruneSpec>& specs) {
  const auto views = model.prunable_views();
  TINYADC_CHECK(specs.size() == views.size(),
                "spec count " << specs.size() << " != prunable layer count "
                              << views.size());
  MappedNetwork net;
  net.config = config;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const Tensor m = views[i].to_matrix();
    const auto removal =
        infer_removal(m, specs[i].remove_shapes, specs[i].remove_filters);
    net.layers.push_back(
        map_matrix(m, views[i].layer_name, config, removal));
  }
  return net;
}

std::vector<std::int64_t> reference_mvm(const MappedLayer& layer,
                                        const std::vector<std::int32_t>& x) {
  TINYADC_CHECK(static_cast<std::int64_t>(x.size()) == layer.rows,
                "input length " << x.size() << " != layer rows "
                                << layer.rows);
  std::vector<std::int64_t> y(static_cast<std::size_t>(layer.cols), 0);
  for (const auto& b : layer.blocks)
    for (std::int64_t r = 0; r < b.rows; ++r) {
      const std::int64_t orig_r =
          layer.kept_rows[static_cast<std::size_t>(b.row0 + r)];
      const std::int32_t xv = x[static_cast<std::size_t>(orig_r)];
      if (xv == 0) continue;
      for (std::int64_t c = 0; c < b.cols; ++c) {
        const std::int64_t orig_c =
            layer.kept_cols[static_cast<std::size_t>(b.col0 + c)];
        y[static_cast<std::size_t>(orig_c)] +=
            static_cast<std::int64_t>(b.at(r, c)) * xv;
      }
    }
  return y;
}

}  // namespace tinyadc::xbar
