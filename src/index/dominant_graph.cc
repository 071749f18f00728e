#include "index/dominant_graph.h"

#include <algorithm>
#include <numeric>

#include "topk/topk.h"
#include "util/logging.h"

namespace iq {

bool Dominates(const Vec& a, const Vec& b) {
  bool strict = false;
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j] > b[j]) return false;
    if (a[j] < b[j]) strict = true;
  }
  return strict;
}

DominantGraph::DominantGraph(const std::vector<Vec>& objects)
    : objects_(&objects) {
  const int n = static_cast<int>(objects.size());
  layer_of_.assign(static_cast<size_t>(n), -1);
  children_.assign(static_cast<size_t>(n), {});
  if (n == 0) return;

  // Sort by coordinate sum: a dominator always has a smaller (or equal) sum,
  // so dominance tests only need to look at earlier objects in this order.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> sums(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (double v : objects[static_cast<size_t>(i)]) sums[static_cast<size_t>(i)] += v;
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sums[static_cast<size_t>(a)] < sums[static_cast<size_t>(b)];
  });

  // layer(v) = 1 + max layer over dominators (longest dominance chain).
  for (int idx : order) {
    const Vec& p = objects[static_cast<size_t>(idx)];
    int layer = 0;
    for (int other : order) {
      if (other == idx) break;  // only earlier objects can dominate
      if (sums[static_cast<size_t>(other)] > sums[static_cast<size_t>(idx)]) break;
      if (layer_of_[static_cast<size_t>(other)] >= layer &&
          Dominates(objects[static_cast<size_t>(other)], p)) {
        layer = layer_of_[static_cast<size_t>(other)] + 1;
      }
    }
    layer_of_[static_cast<size_t>(idx)] = layer;
    if (layer >= static_cast<int>(layers_.size())) {
      layers_.resize(static_cast<size_t>(layer) + 1);
    }
    layers_[static_cast<size_t>(layer)].push_back(idx);
  }

  // Direct edges: parent in layer i dominating child in layer i+1.
  for (size_t li = 0; li + 1 < layers_.size(); ++li) {
    for (int parent : layers_[li]) {
      for (int child : layers_[li + 1]) {
        if (Dominates(objects[static_cast<size_t>(parent)],
                      objects[static_cast<size_t>(child)])) {
          children_[static_cast<size_t>(parent)].push_back(child);
          ++num_edges_;
        }
      }
    }
  }
}

std::vector<std::pair<int, double>> DominantGraph::TopK(const Vec& weights,
                                                        int k) const {
  std::vector<std::pair<int, double>> candidates;
  const auto& objects = *objects_;
  int max_layer = std::min(k, static_cast<int>(layers_.size()));
  for (int li = 0; li < max_layer; ++li) {
    for (int id : layers_[static_cast<size_t>(li)]) {
      candidates.emplace_back(id, Dot(weights, objects[static_cast<size_t>(id)]));
    }
  }
  auto cmp = [](const std::pair<int, double>& a,
                const std::pair<int, double>& b) {
    return RanksBefore(a.second, a.first, b.second, b.first);
  };
  int kk = std::min<int>(k, static_cast<int>(candidates.size()));
  std::partial_sort(candidates.begin(), candidates.begin() + kk,
                    candidates.end(), cmp);
  candidates.resize(static_cast<size_t>(kk));
  return candidates;
}

size_t DominantGraph::MemoryBytes() const {
  size_t bytes = sizeof(DominantGraph);
  bytes += layer_of_.capacity() * sizeof(int);
  for (const auto& l : layers_) bytes += l.capacity() * sizeof(int);
  for (const auto& c : children_) {
    bytes += sizeof(std::vector<int>) + c.capacity() * sizeof(int);
  }
  return bytes;
}

}  // namespace iq
