// coordinator.hpp - the client-side router of a ptmd cluster.
//
// The coordinator is a *library*, not a process: ptmctl, loadgen, and the
// cluster tests embed one.  It derives the same PartitionMap every node
// derives from the shared ClusterConfig and uses it two ways:
//
//   * ingest routing - a record goes to its location's owner; if the
//     owner is unreachable the delivery fails over down the replica list,
//     and replication converges the copies behind the scenes.  Any
//     replica accepting the upload is durable (write-ahead archive on
//     that node), so "owner down" costs a redial, not a loss.
//
//   * query push-down - the paper's estimators are two-level joins
//     (§III-IV): an AND-join of a location's t periods, then an OR plus
//     Eq. 21 (or the corridor formula) across locations.  Under location
//     sharding the first level is partition-local, so it runs where the
//     records live:
//       - point-volume, point-persistent and recent queries touch one
//         location: the request is forwarded whole to its owner (failing
//         over down the replica list) and the owner's QueryService::run
//         answer comes back verbatim;
//       - p2p and corridor queries send one join-call per location to
//         every owner before awaiting any reply; each owner returns its
//         first-level AND-join and which periods it holds, and the
//         coordinator runs only the second level, in run_two_level - the
//         code QueryService::run runs over its own store, so estimates
//         are byte-identical.  A kSkipMissing corridor whose locations
//         hold different periods is asked again over the periods every
//         location holds; that second round happens only when there are
//         gaps.
//     A location with no reachable replica degrades the answer: a p2p or
//     corridor query treats it as holding no periods, a forwarded query
//     fails with kChannelError, and either way its named periods are
//     folded into the CoverageReport as missing (merge_coverage) instead
//     of the whole query failing.
//
// Threading: a coordinator belongs to one thread (it owns one
// SupervisedConnection per node).  Spin up one per worker.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/partition.hpp"
#include "core/traffic_record.hpp"
#include "query/query_service.hpp"
#include "query/query_types.hpp"
#include "transport/auth.hpp"
#include "transport/connection.hpp"

namespace ptm::cluster {

struct ClusterCoordinatorOptions {
  ClusterConfig config;
  transport::ConnectionTuning tuning{};
  std::optional<transport::AuthCredentials> credentials;
  /// Encoding representative count of the second-level join; must match
  /// the nodes' QueryServiceOptions::s for identical estimates (the
  /// default matches default daemons).
  std::size_t s = QueryServiceOptions{}.s;
  std::uint64_t seed = 1;  ///< reconnect jitter seed
};

/// One node's health snapshot for `cluster_status`.
struct NodeStatus {
  std::uint64_t node_id = 0;
  std::string client_endpoint;
  std::string repl_endpoint;
  std::size_t vnodes = 0;     ///< ring share from the partition map
  bool reachable = false;     ///< stats round trip succeeded
  std::string stats_json;     ///< raw telemetry snapshot when reachable
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ClusterCoordinatorOptions options);

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// Delivers `record` to its owner, failing over down the replica list
  /// on channel errors (after one redial of a link that went stale while
  /// idle).  Ok = some replica acked (durably ingested or deduped); a
  /// *fatal* nack surfaces as that node's verdict without
  /// failover (retrying elsewhere cannot fix a conflicting record);
  /// kUnavailable when no replica could be reached before `deadline`.
  [[nodiscard]] Status ingest(const TrafficRecord& record,
                              const Deadline& deadline);

  /// Runs `request` on the partitions it touches (see the file comment).
  /// Estimates equal single-node QueryService::run's bit for bit; the
  /// coverage is that answer's merged with a fetch-stage report over the
  /// periods the request names - present when every location it touches
  /// was reached, missing otherwise.  A request over more than
  /// kMaxQueryPeriods periods fails with InvalidArgument before any call.
  [[nodiscard]] QueryResponse run(const QueryRequest& request);

  /// Polls every node for its telemetry snapshot (redialing a link that
  /// went stale while idle once); unreachable nodes come back with
  /// reachable=false rather than an error.
  [[nodiscard]] std::vector<NodeStatus> cluster_status(
      const Deadline& deadline);

  [[nodiscard]] const PartitionMap& partition_map() const noexcept {
    return map_;
  }
  /// Total sockets opened across all node connections (the chaos suite
  /// bounds reconnect storms with this).
  [[nodiscard]] std::uint64_t connections_opened() const;

  /// Installs a scripted socket-fault plan on the link to `node_id`
  /// (connection-index -> frame fault script, as
  /// SupervisedConnection::set_socket_faults).  No-op for unknown ids.
  /// The chaos suite tears coordinator frames mid-flight with this.
  void set_socket_faults(std::uint64_t node_id,
                         std::map<std::uint64_t, std::vector<SocketFault>> faults);

 private:
  struct NodeLink {
    std::uint64_t node_id = 0;
    ClusterNodeSpec spec;
    std::unique_ptr<transport::SupervisedConnection> conn;
  };

  [[nodiscard]] NodeLink* link_for(std::uint64_t node_id);
  /// Sends one call per location - `make_call(location, id, attempt)` -
  /// to its first reachable replica (owner first), every call before any
  /// reply is awaited; a call that fails moves to the location's next
  /// replica, except that a session which was open before the call and
  /// died under it (a node's idle sweep closed it) is redialed once first.
  /// Replies align with `locations`; nullopt where every replica failed
  /// before `deadline`.
  template <typename Reply, typename MakeCall>
  [[nodiscard]] std::vector<std::optional<Reply>> call_owners(
      std::span<const std::uint64_t> locations, const Deadline& deadline,
      const MakeCall& make_call);

  ClusterCoordinatorOptions options_;
  PartitionMap map_;
  std::vector<NodeLink> links_;
  std::uint64_t next_call_id_ = 0;  ///< correlation ids, unique per link
};

}  // namespace ptm::cluster
