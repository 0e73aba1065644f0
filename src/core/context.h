#pragma once

#include <string>
#include <string_view>

#include "hw/cluster.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "partition/partitioner.h"

namespace hetpipe::core {

// The models a request or an experiment can name by value.
enum class ModelKind {
  kResNet152,
  kVgg19,
  kBertLarge,
};
const char* ModelName(ModelKind kind);
model::ModelGraph BuildModel(ModelKind kind);
// The kind ModelName names: "resnet152", "vgg19" or "bert-large". Throws
// std::invalid_argument, whose message lists the three names, otherwise.
ModelKind ParseModelKind(std::string_view name);

// What a memoised context is built from, compared field by field: the
// cluster text (hw::ClusterSpec text, or paper node codes when from_spec is
// false), the model and the batch size. `cluster` is a view; the key a
// context stores views that context's own copy.
struct ContextKey {
  bool from_spec = false;
  std::string_view cluster;
  ModelKind model = ModelKind::kResNet152;
  int batch_size = 0;
  bool operator==(const ContextKey& other) const {
    return from_spec == other.from_spec && model == other.model &&
           batch_size == other.batch_size && cluster == other.cluster;
  }
};
struct ContextKeyHash {
  size_t operator()(const ContextKey& key) const;
};

// Everything a partition depends on besides the virtual worker and the
// per-call options: the built cluster, the model graph, its profile at one
// batch size, and a partitioner over both. Members reference each other by
// pointer (profile -> graph, partitioner -> profile + cluster), so a Context
// is constructed in place, held by shared_ptr, and never copied or moved.
// Shared only as const, hence safe across threads;
// runner::PartitionCache::GetContext memoises the keyed form.
struct Context {
  // Builds the cluster from the key's text (hw::ClusterSpec text, or paper
  // node codes for hw::Cluster::PaperSubset) and the model from its kind.
  // Throws std::invalid_argument on bad cluster text.
  explicit Context(const ContextKey& source);
  // Over copies of a caller's cluster and graph (a generic model no
  // ModelKind names, or a cluster built in code). Such a context has no
  // value key and is never memoised; `key` holds only the batch size.
  Context(hw::Cluster built_cluster, model::ModelGraph built_graph, int batch_size);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  std::string cluster_text;
  ContextKey key;  // views cluster_text
  hw::Cluster cluster;
  model::ModelGraph graph;
  model::ModelProfile profile;
  partition::Partitioner partitioner;
};

}  // namespace hetpipe::core
