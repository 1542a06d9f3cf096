// Integration tests for ptmd archive replication (docs/cluster.md): a
// ReplicationClient subscribing to a live PtmdServer, the snapshot +
// live-tail stream, partition filtering, resubscribe idempotence, and
// the authenticated replication handshake.  Everything runs in-process
// over unix sockets; the process-level failover story lives in
// cluster_chaos_test.
#include "cluster/replication.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.hpp"
#include "common/random.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "query/query_service.hpp"
#include "transport/auth.hpp"
#include "transport/connection.hpp"
#include "transport/server.hpp"
#include "transport/uplink.hpp"

namespace ptm::cluster {
namespace {

using namespace std::chrono_literals;

transport::Endpoint test_endpoint(const std::string& tag) {
  transport::Endpoint ep;
  ep.kind = transport::Endpoint::Kind::kUnix;
  ep.path = ::testing::TempDir() + "/ptm_crepl_" + tag + "_" +
            std::to_string(::getpid()) + ".sock";
  return ep;
}

TrafficRecord make_record(std::uint64_t location, std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(128);
  rec.bits.set((location * 31 + period) % 128);
  return rec;
}

transport::ConnectionTuning fast_tuning() {
  transport::ConnectionTuning tuning;
  tuning.connect_timeout_ms = 1000;
  tuning.io_timeout_ms = 1000;
  tuning.heartbeat_timeout_ms = 1000;
  tuning.backoff_base_ms = 2;
  tuning.backoff_cap_ms = 50;
  return tuning;
}

ReplicationClientOptions follower_options(std::uint64_t node_id,
                                          const transport::Endpoint& peer) {
  ReplicationClientOptions options;
  options.node_id = node_id;
  options.peer = peer;
  options.tuning = fast_tuning();
  options.seed = node_id * 101 + 7;
  return options;
}

/// Polls `done` for up to `timeout`; true when it fired in time.
bool wait_for(const std::function<bool()>& done,
              std::chrono::milliseconds timeout = 5s) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    if (done()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return done();
}

TEST(ReplicationClientTest, SnapshotThenLiveTailConverges) {
  transport::PtmdOptions options;
  options.endpoint = test_endpoint("tail");
  options.idle_timeout_ms = 0;
  transport::PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  // Records held before the subscription arrive via the snapshot...
  for (std::uint64_t period = 0; period < 6; ++period) {
    ASSERT_TRUE(server.service().ingest(make_record(1, period)).is_ok());
  }

  QueryService follower;
  ReplicationClient client(follower_options(2, server.options().endpoint),
                           follower);
  client.start();
  ASSERT_TRUE(wait_for([&] { return client.synced(); }));
  ASSERT_TRUE(wait_for([&] { return follower.record_count() == 6; }));
  EXPECT_EQ(client.applied(), 6u);
  EXPECT_EQ(client.duplicates(), 0u);
  EXPECT_EQ(client.conflicts(), 0u);
  EXPECT_EQ(client.subscriptions(), 1u);

  // ...and records first-accepted on the wire afterwards arrive live.
  transport::SupervisedConnection conn(server.options().endpoint,
                                       fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  transport::UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
  for (std::uint64_t period = 6; period < 10; ++period) {
    auto reply = uplink.deliver(make_record(1, period),
                                TraceContext::for_record(1, period),
                                Deadline::after(2s));
    ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
    ASSERT_TRUE(reply->acked);
  }
  ASSERT_TRUE(wait_for([&] { return follower.record_count() == 10; }));
  EXPECT_EQ(client.applied(), 10u);
  EXPECT_EQ(client.duplicates(), 0u);
  for (std::uint64_t period = 0; period < 10; ++period) {
    EXPECT_TRUE(follower.has_record(1, period)) << "period " << period;
  }

  client.stop();
  server.stop();
}

TEST(ReplicationClientTest, PartitionFilterRestrictsTheStream) {
  transport::PtmdOptions options;
  options.endpoint = test_endpoint("filter");
  options.idle_timeout_ms = 0;
  options.node_id = 1;
  // Subscriber 2 should hold only even locations.
  options.repl_filter = [](std::uint64_t subscriber, std::uint64_t location) {
    return subscriber == 2 && location % 2 == 0;
  };
  transport::PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  for (std::uint64_t location = 0; location < 10; ++location) {
    ASSERT_TRUE(server.service().ingest(make_record(location, 0)).is_ok());
  }

  QueryService follower;
  ReplicationClient client(follower_options(2, server.options().endpoint),
                           follower);
  client.start();
  ASSERT_TRUE(wait_for([&] { return client.synced(); }));
  ASSERT_TRUE(wait_for([&] { return follower.record_count() == 5; }));
  EXPECT_EQ(client.applied(), 5u);
  for (std::uint64_t location = 0; location < 10; ++location) {
    EXPECT_EQ(follower.has_record(location, 0), location % 2 == 0)
        << "location " << location;
  }

  // Live forwards obey the same filter: one even, one odd upload.
  transport::SupervisedConnection conn(server.options().endpoint,
                                       fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  transport::UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
  for (std::uint64_t location : {12u, 13u}) {
    auto reply = uplink.deliver(make_record(location, 1),
                                TraceContext::for_record(location, 1),
                                Deadline::after(2s));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->acked);
  }
  ASSERT_TRUE(wait_for([&] { return follower.has_record(12, 1); }));
  std::this_thread::sleep_for(50ms);  // give a mis-forward time to land
  EXPECT_FALSE(follower.has_record(13, 1));

  client.stop();
  server.stop();
}

TEST(ReplicationClientTest, ResubscribeAfterRestartDedupesTheOverlap) {
  const transport::Endpoint ep = test_endpoint("resub");
  auto server_options = [&] {
    transport::PtmdOptions options;
    options.endpoint = ep;
    options.idle_timeout_ms = 0;
    return options;
  };
  auto server = std::make_unique<transport::PtmdServer>(server_options());
  ASSERT_TRUE(server->start().is_ok());
  for (std::uint64_t period = 0; period < 8; ++period) {
    ASSERT_TRUE(server->service().ingest(make_record(3, period)).is_ok());
  }

  QueryService follower;
  ReplicationClient client(follower_options(2, ep), follower);
  client.start();
  ASSERT_TRUE(wait_for([&] { return follower.record_count() == 8; }));

  // Bounce the peer: the subscription redials, resubscribes, and receives
  // the full snapshot again - every record of which the follower already
  // holds.  The dedupe absorbs the overlap; nothing double-applies.
  server->stop();
  server = std::make_unique<transport::PtmdServer>(server_options());
  ASSERT_TRUE(server->start().is_ok());
  for (std::uint64_t period = 0; period < 8; ++period) {
    ASSERT_TRUE(server->service().ingest(make_record(3, period)).is_ok());
  }
  ASSERT_TRUE(wait_for([&] { return client.subscriptions() >= 2; }, 10s));
  ASSERT_TRUE(wait_for([&] { return client.duplicates() >= 8; }, 10s));
  EXPECT_EQ(follower.record_count(), 8u);
  EXPECT_EQ(client.conflicts(), 0u);

  client.stop();
  server->stop();
}

TEST(ReplicationClientTest, AuthenticatedSubscriptionSyncs) {
  Xoshiro256 rng(501);
  CertificateAuthority ca("repl-ca", 512, rng);
  RsaKeyPair follower_keys = rsa_generate(512, rng);
  auto cert = ca.issue("node:2", 2, follower_keys.pub, 0, 1'000'000);
  ASSERT_TRUE(cert.has_value());

  transport::PtmdOptions options;
  options.endpoint = test_endpoint("auth");
  options.idle_timeout_ms = 0;
  options.auth_ca_key = ca.public_key();
  options.require_auth = true;
  transport::PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  for (std::uint64_t period = 0; period < 4; ++period) {
    ASSERT_TRUE(server.service().ingest(make_record(5, period)).is_ok());
  }

  // Without credentials the subscription can never proceed past the
  // handshake; with them it syncs like the unauthenticated case.
  ReplicationClientOptions with_creds =
      follower_options(2, server.options().endpoint);
  with_creds.credentials = transport::AuthCredentials{
      std::move(follower_keys), std::move(*cert)};
  QueryService follower;
  ReplicationClient client(std::move(with_creds), follower);
  client.start();
  ASSERT_TRUE(wait_for([&] { return client.synced(); }));
  EXPECT_EQ(follower.record_count(), 4u);

  client.stop();
  server.stop();
}

TEST(ReplicationClientTest, TwoClusterNodesConvergeBothWays) {
  // The ClusterNode wiring end to end: a 2-node RF=2 cluster is a full
  // mirror, so a record uploaded to either node must appear on both.
  auto spec = [&](std::uint64_t id) {
    ClusterNodeSpec s;
    s.node_id = id;
    s.client = test_endpoint("mesh" + std::to_string(id));
    s.repl = test_endpoint("mesh" + std::to_string(id) + "r");
    return s;
  };
  ClusterConfig config;
  config.nodes = {spec(1), spec(2)};
  config.replication_factor = 2;

  auto make_node = [&](std::uint64_t id) {
    ClusterNodeOptions options;
    options.config = config;
    options.node_id = id;
    options.server.idle_timeout_ms = 0;
    auto node = ClusterNode::create(std::move(options));
    EXPECT_TRUE(node.has_value());
    return std::move(*node);
  };
  auto node1 = make_node(1);
  auto node2 = make_node(2);
  ASSERT_TRUE(node1->start().is_ok());
  ASSERT_TRUE(node2->start().is_ok());

  auto upload_to = [&](ClusterNode& node, std::uint64_t location) {
    transport::SupervisedConnection conn(
        node.server().options().endpoint, fast_tuning());
    ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
    transport::UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
    for (std::uint64_t period = 0; period < 3; ++period) {
      auto reply = uplink.deliver(make_record(location, period),
                                  TraceContext::for_record(location, period),
                                  Deadline::after(2s));
      ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
      ASSERT_TRUE(reply->acked);
    }
  };
  upload_to(*node1, 100);
  upload_to(*node2, 200);

  ASSERT_TRUE(wait_for([&] {
    return node1->server().service().record_count() == 6 &&
           node2->server().service().record_count() == 6;
  }, 10s));
  for (std::uint64_t period = 0; period < 3; ++period) {
    EXPECT_TRUE(node1->server().service().has_record(200, period));
    EXPECT_TRUE(node2->server().service().has_record(100, period));
  }

  node1->stop();
  node2->stop();
}

TEST(ReplicationClientTest, IdleSweepLeavesQuietReplicationLinksOpen) {
  // Replication carries no heartbeat, so after the last record a
  // subscription is silent.  The idle sweep must not treat that as a dead
  // peer: closing it would make every follower redial and pull a full
  // snapshot again once per timeout.
  constexpr std::uint64_t kIdleMs = 60;
  auto spec = [&](std::uint64_t id) {
    ClusterNodeSpec s;
    s.node_id = id;
    s.client = test_endpoint("idle" + std::to_string(id));
    s.repl = test_endpoint("idle" + std::to_string(id) + "r");
    return s;
  };
  ClusterConfig config;
  config.nodes = {spec(1), spec(2)};
  config.replication_factor = 2;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (std::uint64_t id : {1, 2}) {
    ClusterNodeOptions options;
    options.config = config;
    options.node_id = id;
    options.server.idle_timeout_ms = kIdleMs;
    auto node = ClusterNode::create(std::move(options));
    ASSERT_TRUE(node.has_value());
    ASSERT_TRUE((*node)->start().is_ok());
    nodes.push_back(std::move(*node));
  }
  {
    transport::SupervisedConnection conn(nodes[0]->server().options().endpoint,
                                         fast_tuning());
    ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
    transport::UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
    for (std::uint64_t period = 0; period < 3; ++period) {
      auto reply = uplink.deliver(make_record(300, period), {},
                                  Deadline::after(2s));
      ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
      ASSERT_TRUE(reply->acked);
    }
  }
  ASSERT_TRUE(wait_for([&] {
    return nodes[1]->server().service().record_count() == 3;
  }));

  const auto subscriptions = [&] {
    std::uint64_t total = 0;
    for (const auto& node : nodes) {
      for (const auto& client : node->replication_clients()) {
        total += client->subscriptions();
      }
    }
    return total;
  };
  const auto repl_records = [&] {
    std::uint64_t total = 0;
    for (const auto& node : nodes) {
      total += node->server().telemetry().snapshot().counter_sum(
          "transport_repl_records_total");
    }
    return total;
  };
  ASSERT_TRUE(wait_for([&] { return subscriptions() == 2; }));  // per link
  const std::uint64_t subscriptions_before = subscriptions();
  const std::uint64_t records_before = repl_records();
  std::this_thread::sleep_for(std::chrono::milliseconds(8 * kIdleMs));
  EXPECT_EQ(subscriptions(), subscriptions_before);
  EXPECT_EQ(repl_records(), records_before);
  for (const auto& node : nodes) {
    EXPECT_EQ(node->server().telemetry().snapshot().find(
                  "transport_repl_subscribers")->gauge_value,
              1);
  }
  for (auto& node : nodes) node->stop();
}

}  // namespace
}  // namespace ptm::cluster
