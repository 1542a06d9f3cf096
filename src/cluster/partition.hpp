// partition.hpp - the cluster's consistent-hash location partition map.
//
// A single ptmd holds every (location, period) record; a cluster shards
// that keyspace by *location* so each of the paper's query shapes stays
// local to few nodes: all periods of one location live together (point
// and persistent queries touch one partition), and multi-location shapes
// (p2p, corridor) fan out one first-level join per location.
//
// The map is a classic consistent-hash ring: each node projects
// `kVnodesPerNode` virtual points onto the 64-bit ring, a location hashes
// to a point, and its *owner* is the first node clockwise.  The
// replication group is the owner plus the next `replication_factor - 1`
// distinct nodes on the ring, so losing a node moves only its arcs to the
// ring successors instead of reshuffling the whole keyspace.
//
// Every party derives the same map from the same ClusterConfig - nodes
// (for their server-side repl_filter), followers (for what to subscribe
// to), and coordinators (for routing) - so there is no membership
// service to keep consistent; the config string IS the membership.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "transport/socket.hpp"

namespace ptm::cluster {

/// One node of the cluster: its id plus where clients ingest/query
/// (`client`) and where peers subscribe for replication (`repl`).  A spec
/// without an explicit repl endpoint reuses the client endpoint -
/// replication then shares the ingest listener, which works but contends.
struct ClusterNodeSpec {
  std::uint64_t node_id = 0;
  transport::Endpoint client;
  transport::Endpoint repl;
};

struct ClusterConfig {
  std::vector<ClusterNodeSpec> nodes;
  /// Copies of every location (owner included).  Clamped to the node
  /// count; 1 = no redundancy.
  std::size_t replication_factor = 2;
};

/// Parses the cluster membership syntax shared by every tool flag:
///
///   <node_id>@<client_endpoint>[@<repl_endpoint>] ';' ...
///
/// e.g. "1@unix:/tmp/a.sock@unix:/tmp/a-repl.sock;2@tcp:127.0.0.1:7101".
/// InvalidArgument on malformed entries, duplicate node ids, or an id of
/// 0 (reserved for standalone daemons).
[[nodiscard]] Result<ClusterConfig> parse_cluster_spec(
    const std::string& spec);

class PartitionMap {
 public:
  /// Virtual points per node - enough that a 3-node ring splits load
  /// within a few percent of even.
  static constexpr std::size_t kVnodesPerNode = 64;

  /// Builds the ring from `config` (node order does not matter - the map
  /// is a pure function of the node ids).  Precondition: at least one
  /// node.
  explicit PartitionMap(const ClusterConfig& config);

  /// The node owning `location`: ingest routes here first and replicas
  /// follow it on the ring.
  [[nodiscard]] std::uint64_t owner(std::uint64_t location) const;

  /// The full replication group, owner first, then ring successors;
  /// size = min(replication_factor, node count), all distinct.
  [[nodiscard]] std::vector<std::uint64_t> replicas(
      std::uint64_t location) const;

  /// Should `node_id` hold `location`?  The server-side repl_filter and
  /// the follower-side apply predicate are both exactly this.
  [[nodiscard]] bool should_hold(std::uint64_t node_id,
                                 std::uint64_t location) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_ids_.size();
  }
  [[nodiscard]] std::size_t replication_factor() const noexcept {
    return replication_factor_;
  }
  /// Ring arcs owned by `node_id`, as a count of its virtual points that
  /// are some location's first clockwise hit (ptmctl cluster-status
  /// reports this as the node's share of the ring).
  [[nodiscard]] std::size_t vnode_count(std::uint64_t node_id) const;

 private:
  /// (ring position, node id), sorted by position.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ring_;
  std::vector<std::uint64_t> node_ids_;
  std::size_t replication_factor_ = 1;
};

}  // namespace ptm::cluster
