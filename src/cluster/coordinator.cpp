#include "cluster/coordinator.hpp"

#include <chrono>
#include <type_traits>
#include <variant>

#include "net/mac.hpp"
#include "transport/uplink.hpp"
#include "transport/wire.hpp"

namespace ptm::cluster {
namespace {

using namespace std::chrono_literals;

// Locally-administered MAC identifying coordinator uplinks in V2I frames.
constexpr MacAddress kCoordinatorMac{(0x02ULL << 40) | 0xC0DEULL};
constexpr MacAddress kServerMac{0x02ULL << 40 | 0x53525600ULL};  // "SRV"

/// The tighter of `outer` and a fresh `budget` - every per-node exchange
/// is bounded even under an unbounded caller deadline, so one dead node
/// cannot eat the whole query's time.
Deadline bounded(const Deadline& outer, std::chrono::milliseconds budget) {
  const Deadline local = Deadline::after(budget);
  return local.time_point() < outer.time_point() ? local : outer;
}

/// Per-node attempt budget: one dead or stalled node costs at most this
/// before the call fails over to the next replica.
constexpr auto kAttemptBudget = 1000ms;

/// Whether a session is open before a call uses it.  ptmd's idle sweep
/// closes a quiet coordinator link, and this end learns so only when it
/// next sends or receives; a call whose reused session dies that way
/// redials the same node once before failing over.
bool reusing(const transport::SupervisedConnection& conn) {
  return conn.state() == transport::SupervisedConnection::State::kConnected;
}

/// True when a call that went out on a reused session failed because the
/// session died (not, say, on a deadline): the stale-link case above.
bool stale_session(bool reused, const transport::SupervisedConnection& conn) {
  return reused && !reusing(conn);
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(ClusterCoordinatorOptions options)
    : options_(std::move(options)), map_(options_.config) {
  std::uint64_t ordinal = 0;
  for (const ClusterNodeSpec& spec : options_.config.nodes) {
    NodeLink link;
    link.node_id = spec.node_id;
    link.spec = spec;
    link.conn = std::make_unique<transport::SupervisedConnection>(
        spec.client, options_.tuning, nullptr,
        options_.seed * 7919 + ++ordinal);
    if (options_.credentials.has_value()) {
      link.conn->set_credentials(options_.credentials);
    }
    links_.push_back(std::move(link));
  }
}

ClusterCoordinator::NodeLink* ClusterCoordinator::link_for(
    std::uint64_t node_id) {
  for (NodeLink& link : links_) {
    if (link.node_id == node_id) return &link;
  }
  return nullptr;
}

Status ClusterCoordinator::ingest(const TrafficRecord& record,
                                  const Deadline& deadline) {
  Status last{ErrorCode::kChannelError, "no replica reachable"};
  for (std::uint64_t node_id : map_.replicas(record.location)) {
    NodeLink* link = link_for(node_id);
    if (link == nullptr) continue;
    for (bool redialed = false;; redialed = true) {
      if (deadline.expired_now()) {
        return {ErrorCode::kDeadlineExceeded, "cluster ingest deadline"};
      }
      const Deadline attempt = bounded(deadline, kAttemptBudget);
      const bool reused = reusing(*link->conn);
      const Status connected = link->conn->ensure_connected(attempt);
      if (!connected.is_ok()) {
        last = connected;
        break;  // fail over down the replica list
      }
      transport::UplinkClient uplink(*link->conn, kCoordinatorMac,
                                     kServerMac);
      auto reply = uplink.deliver(record, {}, attempt);
      if (!reply) {
        // Unknown outcome here; ingest is idempotent, so the same node
        // (once, for a stale link) or another replica can still take it.
        last = reply.status();
        if (!redialed && stale_session(reused, *link->conn)) continue;
        break;
      }
      if (reply->acked) return {};
      if (!reply->nack.retryable) {
        // A fatal verdict (conflicting record) is about the *record*, not
        // the node - no replica will decide differently.
        return {reply->nack.code, "cluster ingest rejected by node " +
                                      std::to_string(node_id)};
      }
      last = Status{reply->nack.code,
                    "node " + std::to_string(node_id) + " shed the ingest"};
      break;
    }
  }
  return last;
}

template <typename Reply, typename MakeCall>
std::vector<std::optional<Reply>> ClusterCoordinator::call_owners(
    std::span<const std::uint64_t> locations, const Deadline& deadline,
    const MakeCall& make_call) {
  struct Call {
    std::size_t tried = 0;     ///< replicas already asked, owner first
    NodeLink* link = nullptr;  ///< where the call in flight went
    std::uint64_t id = 0;
    Deadline attempt;
    bool reused = false;    ///< the last attempt went out on an open session
    bool redialed = false;  ///< replica `tried - 1` already had its redial
  };
  // After a failed attempt on `link`: a stale session earns that replica
  // one more attempt on a fresh one; anything else moves on.
  const auto after_failure = [](Call& call, const NodeLink& link) {
    call.redialed = !call.redialed && stale_session(call.reused, *link.conn);
    if (call.redialed) --call.tried;
  };
  std::vector<std::optional<Reply>> replies(locations.size());
  std::vector<Call> calls(locations.size());
  std::map<std::uint64_t, Reply> early;
  for (;;) {
    // Every unanswered location's call goes to its next replica before any
    // reply is awaited, so the owners work concurrently.
    bool in_flight = false;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      Call& call = calls[i];
      const std::vector<std::uint64_t> replicas = map_.replicas(locations[i]);
      while (!replies[i] && call.link == nullptr &&
             call.tried < replicas.size() && !deadline.expired_now()) {
        NodeLink* link = link_for(replicas[call.tried++]);
        if (link == nullptr) continue;
        const Deadline attempt = bounded(deadline, kAttemptBudget);
        call.reused = reusing(*link->conn);
        if (!link->conn->ensure_connected(attempt).is_ok()) {
          after_failure(call, *link);
          continue;
        }
        const std::uint64_t id = ++next_call_id_;
        if (!link->conn->send(make_call(locations[i], id, attempt)).is_ok()) {
          after_failure(call, *link);
          continue;
        }
        call.link = link;
        call.id = id;
        call.attempt = attempt;
      }
      in_flight |= call.link != nullptr;
    }
    if (!in_flight) return replies;
    // A failed await leaves the location for the next round's replica.
    for (std::size_t i = 0; i < calls.size(); ++i) {
      Call& call = calls[i];
      if (call.link == nullptr) continue;
      auto reply = call.link->conn->template await_reply<Reply>(
          call.id, call.attempt, &early);
      if (reply) {
        replies[i] = std::move(*reply);
      } else {
        after_failure(call, *call.link);
      }
      call.link = nullptr;
    }
  }
}

QueryResponse ClusterCoordinator::run(const QueryRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  const Deadline& deadline = query_deadline(request);
  if (Status bounds = check_query_bounds(request); !bounds.is_ok()) {
    return QueryResponse{std::move(bounds)};
  }
  bool unreached = false;
  // The owners' first-level joins; a location whose every replica failed
  // counts as storing nothing.
  const JoinSource owner_joins =
      [&](std::span<const std::uint64_t> locations,
          const std::vector<std::uint64_t>& periods) {
        auto replies = call_owners<transport::JoinReply>(
            locations, deadline,
            [&](std::uint64_t location, std::uint64_t id,
                const Deadline& attempt) -> transport::WireMessage {
              return transport::JoinCall{id, location, periods, attempt};
            });
        std::vector<std::optional<LocationJoin>> joins(replies.size());
        for (std::size_t i = 0; i < replies.size(); ++i) {
          if (replies[i]) joins[i] = std::move(replies[i]->join);
          unreached |= !replies[i];
        }
        return joins;
      };
  QueryResponse response = std::visit(
      [&](const auto& q) -> QueryResponse {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, P2PPersistentQuery> ||
                      std::is_same_v<T, CorridorQuery>) {
          QueryResponse joined = run_two_level(q, options_.s, owner_joins);
          joined.latency_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
          return joined;
        } else {
          // One location, one partition: the owner's answer is the answer.
          auto replies = call_owners<transport::QueryReply>(
              std::span<const std::uint64_t>(&q.location, 1), deadline,
              [&](std::uint64_t, std::uint64_t id,
                  const Deadline& attempt) -> transport::WireMessage {
                return transport::QueryCall{id, request, attempt};
              });
          if (replies[0]) return std::move(replies[0]->response);
          unreached = true;
          return QueryResponse{
              deadline.expired_now()
                  ? Status{ErrorCode::kDeadlineExceeded,
                           "cluster query deadline"}
                  : Status{ErrorCode::kChannelError, "no replica reachable"}};
        }
      },
      request);

  // Fetch-stage coverage: a location with no reachable replica leaves
  // every named period uncovered (corridor semantics - a period is
  // present only when every location holds it), which merge_coverage
  // folds into the response instead of failing the query outright.
  CoverageReport fetch_report;
  fetch_report.requested = query_named_periods(request);
  if (unreached) fetch_report.missing = fetch_report.requested;
  response.coverage = merge_coverage(response.coverage, fetch_report);
  return response;
}

std::vector<NodeStatus> ClusterCoordinator::cluster_status(
    const Deadline& deadline) {
  std::vector<NodeStatus> statuses;
  for (NodeLink& link : links_) {
    NodeStatus status;
    status.node_id = link.node_id;
    status.client_endpoint = link.spec.client.to_string();
    status.repl_endpoint = link.spec.repl.to_string();
    status.vnodes = map_.vnode_count(link.node_id);
    for (bool redialed = false;; redialed = true) {
      const Deadline attempt = bounded(deadline, kAttemptBudget);
      const bool reused = reusing(*link.conn);
      if (link.conn->ensure_connected(attempt).is_ok() &&
          link.conn->send(transport::StatsRequest{}).is_ok()) {
        for (;;) {
          auto message = link.conn->receive(attempt);
          if (!message) break;
          if (const auto* stats =
                  std::get_if<transport::StatsResponse>(&*message)) {
            status.reachable = true;
            status.stats_json = stats->json;
            break;
          }
        }
      }
      if (status.reachable || redialed ||
          !stale_session(reused, *link.conn)) {
        break;
      }
    }
    statuses.push_back(std::move(status));
  }
  return statuses;
}

void ClusterCoordinator::set_socket_faults(
    std::uint64_t node_id,
    std::map<std::uint64_t, std::vector<SocketFault>> faults) {
  if (NodeLink* link = link_for(node_id)) {
    link->conn->set_socket_faults(std::move(faults));
  }
}

std::uint64_t ClusterCoordinator::connections_opened() const {
  std::uint64_t total = 0;
  for (const NodeLink& link : links_) {
    total += link.conn->connections_opened();
  }
  return total;
}

}  // namespace ptm::cluster
