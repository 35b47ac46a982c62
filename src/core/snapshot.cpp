#include "core/snapshot.hpp"

#include <fstream>
#include <stdexcept>

namespace cpkcore {

namespace {
constexpr char kMagic[] = "cpkcore-snapshot-v1";
}

void save_snapshot(const CPLDS& ds, const std::string& path) {
  save_snapshot(ds.num_vertices(), collect_snapshot_edges(ds), path);
}

std::vector<Edge> collect_snapshot_edges(const CPLDS& ds) {
  // Enumerate canonical edges from the quiescent level buckets.
  const PLDS& plds = ds.plds();
  std::vector<Edge> edges;
  edges.reserve(ds.num_edges());
  for (vertex_t v = 0; v < ds.num_vertices(); ++v) {
    for (vertex_t w : plds.neighbors(v)) {
      if (w > v) edges.push_back({v, w});
    }
  }
  if (edges.size() != ds.num_edges()) {
    throw std::runtime_error("snapshot edge count mismatch");
  }
  return edges;
}

void save_snapshot(vertex_t num_vertices, const std::vector<Edge>& edges,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << kMagic << '\n' << num_vertices << '\n';
  for (const Edge& e : edges) {
    out << e.u << ' ' << e.v << '\n';
  }
  out.close();  // the final buffered write can fail too
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::unique_ptr<CPLDS> load_snapshot(const std::string& path,
                                     const SnapshotLoadOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open snapshot: " + path);
  std::string magic;
  if (!std::getline(in, magic) || magic != kMagic) {
    throw std::runtime_error("bad snapshot header in " + path);
  }
  vertex_t n = 0;
  if (!(in >> n) || n < 2) {
    throw std::runtime_error("bad vertex count in " + path);
  }
  std::vector<Edge> edges;
  vertex_t u = 0;
  vertex_t v = 0;
  while (in >> u >> v) {
    if (u >= n || v >= n) {
      throw std::runtime_error("edge out of range in " + path);
    }
    edges.push_back({u, v});
  }
  auto ds = std::make_unique<CPLDS>(
      n,
      LDSParams::create(n, options.delta, options.lambda,
                        options.levels_per_group_cap),
      options.cplds);
  ds->insert_batch(std::move(edges));
  return ds;
}

}  // namespace cpkcore
