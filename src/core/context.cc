#include "core/context.h"

#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "hw/cluster_spec.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "model/vgg.h"

namespace hetpipe::core {
namespace {

// Indexed by ModelKind.
constexpr struct {
  std::string_view name;  // a literal, so data() is NUL-terminated
  model::ModelGraph (*build)();
} kModels[] = {
    {"resnet152", [] { return model::BuildResNet152(); }},
    {"vgg19", [] { return model::BuildVgg19(); }},
    {"bert-large", [] { return model::BuildBertLarge(); }},
};

hw::Cluster BuildCluster(bool from_spec, const std::string& text) {
  return from_spec ? hw::ClusterSpec::Parse(text).Build() : hw::Cluster::PaperSubset(text);
}

}  // namespace

const char* ModelName(ModelKind kind) { return kModels[static_cast<size_t>(kind)].name.data(); }

model::ModelGraph BuildModel(ModelKind kind) { return kModels[static_cast<size_t>(kind)].build(); }

ModelKind ParseModelKind(std::string_view name) {
  for (size_t i = 0; i < std::size(kModels); ++i) {
    if (name == kModels[i].name) {
      return static_cast<ModelKind>(i);
    }
  }
  throw std::invalid_argument("unknown model \"" + std::string(name) +
                              "\" (expected resnet152, vgg19 or bert-large)");
}

size_t ContextKeyHash::operator()(const ContextKey& key) const {
  const size_t h = std::hash<std::string_view>()(key.cluster) * 31 + static_cast<size_t>(key.model);
  return h * 31 + static_cast<size_t>(key.batch_size) * 2 + (key.from_spec ? 1 : 0);
}

Context::Context(const ContextKey& source)
    : cluster_text(source.cluster),
      key{source.from_spec, cluster_text, source.model, source.batch_size},
      cluster(BuildCluster(source.from_spec, cluster_text)),
      graph(BuildModel(source.model)),
      profile(graph, source.batch_size),
      partitioner(profile, cluster) {}

Context::Context(hw::Cluster built_cluster, model::ModelGraph built_graph, int batch_size)
    : key{false, {}, ModelKind::kResNet152, batch_size},
      cluster(std::move(built_cluster)),
      graph(std::move(built_graph)),
      profile(graph, batch_size),
      partitioner(profile, cluster) {}

}  // namespace hetpipe::core
