// The PKI handshake on the ptmd wire (paper §II-B, docs/transport.md
// *Authenticated handshake*): a certified client authenticates and
// uploads; unauthenticated and bad-certificate peers are refused with
// DISTINCT reject codes (auth-required / malformed-certificate /
// untrusted-certificate / certificate-expired / bad-proof); handshakes
// torn by scripted socket faults retry cleanly on the backoff ladder and
// never leave a half-authenticated session.  Also pins the heartbeat
// nonce regression: nonces must be reseeded per connection attempt so a
// stale ack replayed from a dead session can never satisfy a fresh ping.
#include "transport/auth.hpp"
#include "transport/connection.hpp"
#include "transport/server.hpp"
#include "transport/uplink.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/random.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "crypto/rsa.hpp"
#include "net/message.hpp"
#include "transport/framing.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace ptm::transport {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kTestKeyBits = 512;

Endpoint test_endpoint(const std::string& tag) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = ::testing::TempDir() + "/ptm_auth_" + tag + "_" +
            std::to_string(::getpid()) + ".sock";
  return ep;
}

TrafficRecord make_record(std::uint64_t location, std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(128);
  rec.bits.set(period % 128);
  return rec;
}

/// One CA plus a credential it issued, the whole client side of §II-B.
struct TestPki {
  Xoshiro256 rng;
  CertificateAuthority ca;
  AuthCredentials creds;

  explicit TestPki(std::uint64_t seed, std::uint64_t valid_from = 0,
                   std::uint64_t valid_until = 1000)
      : rng(seed), ca("test-ca-" + std::to_string(seed), kTestKeyBits, rng),
        creds(mint(valid_from, valid_until)) {}

  AuthCredentials mint(std::uint64_t valid_from, std::uint64_t valid_until) {
    RsaKeyPair keys = rsa_generate(kTestKeyBits, rng);
    auto cert = ca.issue("rsu:1", 1, keys.pub, valid_from, valid_until);
    return AuthCredentials{std::move(keys), std::move(*cert)};
  }
};

PtmdOptions auth_options(const std::string& tag, const RsaPublicKey& ca_key) {
  PtmdOptions options;
  options.endpoint = test_endpoint(tag);
  options.ingest_threads = 2;
  options.idle_timeout_ms = 0;
  options.auth_ca_key = ca_key;
  options.require_auth = true;
  return options;
}

ConnectionTuning fast_tuning() {
  ConnectionTuning tuning;
  tuning.connect_timeout_ms = 1000;
  tuning.io_timeout_ms = 1000;
  tuning.heartbeat_timeout_ms = 1000;
  tuning.backoff_base_ms = 2;
  tuning.backoff_cap_ms = 50;
  return tuning;
}

/// Writes one framed message on a raw socket (for tests that drive the
/// server below the SupervisedConnection handshake state machine).
void send_raw(Socket& sock, const WireMessage& message) {
  const auto wire = frame_payload(encode_wire_message(message));
  std::size_t off = 0;
  while (off < wire.size()) {
    auto io = sock.write_some(std::span<const std::uint8_t>(wire).subspan(off));
    ASSERT_TRUE(io.has_value()) << io.status().to_string();
    off += io->bytes;
    if (io->would_block) std::this_thread::sleep_for(1ms);
  }
}

/// Reads until one message decodes (or the timeout passes -> nullopt).
std::optional<WireMessage> read_raw(Socket& sock, StreamDecoder& decoder,
                                    std::uint64_t timeout_ms) {
  const Deadline deadline =
      Deadline::after(std::chrono::milliseconds(timeout_ms));
  while (!deadline.expired_now()) {
    auto next = decoder.next();
    if (next.has_value() && next->has_value()) {
      auto msg = decode_wire_message(**next);
      if (!msg.has_value()) return std::nullopt;
      return std::move(*msg);
    }
    auto ready = sock.wait(false, 50);
    if (!ready.has_value()) return std::nullopt;
    if (!*ready) continue;
    std::uint8_t buf[4096];
    auto io = sock.read_some(buf);
    if (!io.has_value() || io->peer_closed) return std::nullopt;
    decoder.feed({buf, io->bytes});
  }
  return std::nullopt;
}

TEST(TransportAuthTest, CertifiedClientAuthenticatesAndDelivers) {
  TestPki pki(1);
  PtmdServer server(auth_options("ok", pki.ca.public_key()));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  conn.set_credentials(pki.creds);
  EXPECT_TRUE(conn.has_credentials());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(5s)).is_ok());

  UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
  auto reply = uplink.deliver(make_record(1, 0), TraceContext::for_record(1, 0),
                              Deadline::after(5s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  EXPECT_TRUE(reply->acked);
  EXPECT_EQ(server.service().record_count(), 1u);
  EXPECT_EQ(server.telemetry().counter("transport_auth_ok_total").value(), 1u);
  EXPECT_EQ(
      server.telemetry().counter("transport_auth_rejects_total").value(), 0u);
  server.stop();
}

TEST(TransportAuthTest, UnauthenticatedPeerGetsAuthRequiredReject) {
  TestPki pki(2);
  PtmdServer server(auth_options("noauth", pki.ca.public_key()));
  ASSERT_TRUE(server.start().is_ok());

  // No credentials installed: the TCP-level connect succeeds, but the
  // first non-handshake frame is refused with the auth-required code.
  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(5s)).is_ok());
  auto rtt = conn.ping();
  ASSERT_FALSE(rtt.has_value());
  EXPECT_EQ(rtt.status().code(), ErrorCode::kAuthFailure);
  EXPECT_NE(rtt.status().message().find("auth-required"), std::string::npos);
  EXPECT_EQ(
      server.telemetry().counter("transport_auth_rejects_total").value(), 1u);
  server.stop();
}

TEST(TransportAuthTest, WrongCaIsDefinitiveUntrustedReject) {
  TestPki server_pki(3);
  TestPki rogue_pki(4);  // same structure, different CA key
  PtmdServer server(auth_options("rogue", server_pki.ca.public_key()));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  conn.set_credentials(rogue_pki.creds);
  const Status s = conn.ensure_connected(Deadline::after(5s));
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kAuthFailure);
  EXPECT_NE(s.message().find("untrusted-certificate"), std::string::npos);
  // A definitive reject must not burn the deadline redialing: rejected
  // credentials cannot become trusted by retrying.
  EXPECT_EQ(conn.connections_opened(), 1u);
  EXPECT_EQ(
      server.telemetry().counter("transport_auth_rejects_total").value(), 1u);
  server.stop();
}

TEST(TransportAuthTest, ExpiredWindowIsDistinctReject) {
  TestPki pki(5, /*valid_from=*/5, /*valid_until=*/10);
  PtmdOptions options = auth_options("expired", pki.ca.public_key());
  options.auth_period = 20;  // past the certificate's window
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  conn.set_credentials(pki.creds);
  const Status s = conn.ensure_connected(Deadline::after(5s));
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kAuthFailure);
  EXPECT_NE(s.message().find("certificate-expired"), std::string::npos);
  server.stop();
}

TEST(TransportAuthTest, RawPeerSeesDistinctRejectCodes) {
  TestPki pki(6);
  PtmdServer server(auth_options("raw", pki.ca.public_key()));
  ASSERT_TRUE(server.start().is_ok());
  const Endpoint ep = server.options().endpoint;
  const auto cert_bytes = pki.creds.certificate.serialize();

  {  // Garbage hello bytes -> malformed-certificate.
    auto sock = Socket::connect(ep, 1000);
    ASSERT_TRUE(sock.has_value());
    StreamDecoder decoder;
    send_raw(*sock, AuthHello{{0xDE, 0xAD, 0xBE, 0xEF}});
    auto reply = read_raw(*sock, decoder, 2000);
    ASSERT_TRUE(reply.has_value());
    const auto* reject = std::get_if<AuthReject>(&*reply);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->code, AuthRejectCode::kMalformedCertificate);
  }
  {  // Valid hello, garbage signature -> bad-proof.
    auto sock = Socket::connect(ep, 1000);
    ASSERT_TRUE(sock.has_value());
    StreamDecoder decoder;
    send_raw(*sock, AuthHello{cert_bytes});
    auto challenge = read_raw(*sock, decoder, 2000);
    ASSERT_TRUE(challenge.has_value());
    ASSERT_TRUE(std::holds_alternative<AuthChallenge>(*challenge));
    send_raw(*sock, AuthProof{{1, 2, 3, 4, 5}});
    auto reply = read_raw(*sock, decoder, 2000);
    ASSERT_TRUE(reply.has_value());
    const auto* reject = std::get_if<AuthReject>(&*reply);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->code, AuthRejectCode::kBadProof);
  }
  {  // Proof signed over the WRONG transcript (stale nonce) -> bad-proof:
     // the channel binding means a signature cannot be replayed.
    auto sock = Socket::connect(ep, 1000);
    ASSERT_TRUE(sock.has_value());
    StreamDecoder decoder;
    send_raw(*sock, AuthHello{cert_bytes});
    auto challenge = read_raw(*sock, decoder, 2000);
    ASSERT_TRUE(challenge.has_value());
    const std::vector<std::uint8_t> stale_nonce(kAuthNonceBytes, 0x42);
    send_raw(*sock, AuthProof{rsa_sign(
                        pki.creds.keys,
                        auth_transcript(stale_nonce, cert_bytes))});
    auto reply = read_raw(*sock, decoder, 2000);
    ASSERT_TRUE(reply.has_value());
    const auto* reject = std::get_if<AuthReject>(&*reply);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->code, AuthRejectCode::kBadProof);
  }
  EXPECT_EQ(
      server.telemetry().counter("transport_auth_rejects_total").value(), 3u);
  EXPECT_EQ(server.telemetry().counter("transport_auth_ok_total").value(), 0u);
  server.stop();
}

TEST(TransportAuthTest, ServerWithoutCaKeyAnswersAuthUnavailable) {
  TestPki pki(7);
  PtmdOptions options;
  options.endpoint = test_endpoint("noca");
  options.ingest_threads = 1;
  options.idle_timeout_ms = 0;  // no CA key, auth optional
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  conn.set_credentials(pki.creds);
  const Status s = conn.ensure_connected(Deadline::after(5s));
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kAuthFailure);
  EXPECT_NE(s.message().find("auth-unavailable"), std::string::npos);
  server.stop();
}

TEST(TransportAuthTest, RequireAuthWithoutCaKeyRefusesToStart) {
  PtmdOptions options;
  options.endpoint = test_endpoint("misconfig");
  options.require_auth = true;  // no auth_ca_key: would reject every peer
  PtmdServer server(std::move(options));
  const Status s = server.start();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(TransportAuthTest, OptionalAuthAcceptsBothKindsOfPeer) {
  TestPki pki(8);
  PtmdOptions options = auth_options("optional", pki.ca.public_key());
  options.require_auth = false;
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection plain(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(plain.ensure_connected(Deadline::after(5s)).is_ok());
  UplinkClient plain_uplink(plain, MacAddress{0x10}, MacAddress{0x20});
  auto plain_reply =
      plain_uplink.deliver(make_record(2, 0), TraceContext::for_record(2, 0),
                           Deadline::after(5s));
  ASSERT_TRUE(plain_reply.has_value()) << plain_reply.status().to_string();
  EXPECT_TRUE(plain_reply->acked);

  SupervisedConnection certified(server.options().endpoint, fast_tuning());
  certified.set_credentials(pki.creds);
  ASSERT_TRUE(certified.ensure_connected(Deadline::after(5s)).is_ok());
  UplinkClient cert_uplink(certified, MacAddress{0x11}, MacAddress{0x20});
  auto cert_reply =
      cert_uplink.deliver(make_record(3, 0), TraceContext::for_record(3, 0),
                          Deadline::after(5s));
  ASSERT_TRUE(cert_reply.has_value()) << cert_reply.status().to_string();
  EXPECT_TRUE(cert_reply->acked);
  EXPECT_EQ(server.telemetry().counter("transport_auth_ok_total").value(), 1u);
  server.stop();
}

TEST(TransportAuthTest, MidHandshakeFaultsRetryCleanlyThenAuthenticate) {
  TestPki pki(9);
  PtmdOptions options = auth_options("faults", pki.ca.public_key());
  options.auth_timeout_ms = 300;  // reap the conn whose hello we drop
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  ConnectionTuning tuning = fast_tuning();
  tuning.io_timeout_ms = 200;  // bound the wait for a challenge that
                               // never comes (dropped hello)
  SupervisedConnection conn(server.options().endpoint, tuning);
  conn.set_credentials(pki.creds);
  // Connection 0: the hello (outbound frame 0) is silently dropped.
  // Connection 1: the proof (outbound frame 1) is torn mid-frame.
  // Connection 2: clean.
  conn.set_socket_faults(
      {{0, {{0, SocketFaultAction::kDropFrame, 0, 0}}},
       {1, {{1, SocketFaultAction::kTruncateAndSever, 0, 3}}}});
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(10s)).is_ok());
  EXPECT_EQ(conn.connections_opened(), 3u);

  // The surviving session is FULLY authenticated - traffic flows, and the
  // server saw exactly one completed handshake.
  UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
  auto reply = uplink.deliver(make_record(4, 0), TraceContext::for_record(4, 0),
                              Deadline::after(5s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  EXPECT_TRUE(reply->acked);
  EXPECT_EQ(server.telemetry().counter("transport_auth_ok_total").value(), 1u);
  server.stop();
}

TEST(TransportAuthTest, HandshakeTimingOutAtTheDeadlineDoesNotSpinRedials) {
  // The lost proof leaves the handshake waiting out the caller's whole
  // deadline, less the fraction of a millisecond the waits round away.
  // Redialing in that fraction cannot authenticate anything; the dial
  // loop must give up instead of opening a connection per iteration.
  TestPki pki(12);
  PtmdServer server(auth_options("spin", pki.ca.public_key()));
  ASSERT_TRUE(server.start().is_ok());
  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  conn.set_credentials(pki.creds);
  conn.set_socket_faults({{0, {{1, SocketFaultAction::kDropFrame, 0, 0}}}});
  const Status status = conn.ensure_connected(Deadline::after(300ms));
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded) << status.to_string();
  EXPECT_LE(conn.connections_opened(), 2u);
  // A later dial with time to spare authenticates normally.
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(5s)).is_ok());
  server.stop();
}

TEST(TransportAuthTest, ReconnectRunsTheHandshakeAgain) {
  TestPki pki(10);
  PtmdServer server(auth_options("redial", pki.ca.public_key()));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  conn.set_credentials(pki.creds);
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(5s)).is_ok());
  conn.sever();
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(5s)).is_ok());
  EXPECT_EQ(conn.connections_opened(), 2u);
  EXPECT_EQ(server.telemetry().counter("transport_auth_ok_total").value(), 2u);

  UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
  auto reply = uplink.deliver(make_record(5, 0), TraceContext::for_record(5, 0),
                              Deadline::after(5s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  EXPECT_TRUE(reply->acked);
  server.stop();
}

TEST(TransportAuthTest, HeartbeatNoncesReseedPerSessionAndStaleAckIsIgnored) {
  // Regression: heartbeat nonces used to restart at 1 on every dial, so a
  // duplicated/delayed ack from a dead session could satisfy a fresh ping
  // and mask a half-open link.  A hand-rolled server captures the nonces
  // of two sessions and answers the second ping with the FIRST session's
  // nonce before the real one - the stale ack must be skipped.
  const Endpoint ep = test_endpoint("nonce");
  auto listener = Socket::listen(ep);
  ASSERT_TRUE(listener.has_value());

  ConnectionTuning tuning = fast_tuning();
  tuning.heartbeat_timeout_ms = 3000;
  std::uint64_t rtt_failures = 0;
  std::thread client([&] {
    SupervisedConnection conn(ep, tuning);
    for (int session = 0; session < 2; ++session) {
      if (!conn.ensure_connected(Deadline::after(5s)).is_ok() ||
          !conn.ping().has_value()) {
        ++rtt_failures;
      }
      conn.sever();
    }
  });

  const auto accept_one = [&]() -> Socket {
    for (int i = 0; i < 200; ++i) {
      auto ready = listener->wait(false, 50);
      if (ready.has_value() && *ready) {
        auto sock = listener->accept();
        if (sock.has_value() && sock->valid()) return std::move(*sock);
      }
    }
    return Socket();
  };
  const auto read_heartbeat = [&](Socket& sock,
                                  StreamDecoder& decoder) -> Heartbeat {
    auto msg = read_raw(sock, decoder, 5000);
    if (!msg.has_value()) return Heartbeat{};
    const auto* hb = std::get_if<Heartbeat>(&*msg);
    return hb != nullptr ? *hb : Heartbeat{};
  };

  // Session 1: answer the ping honestly and remember its nonce.
  Socket first = accept_one();
  ASSERT_TRUE(first.valid());
  StreamDecoder first_decoder;
  const Heartbeat hb1 = read_heartbeat(first, first_decoder);
  ASSERT_NE(hb1.nonce, 0u);
  send_raw(first, HeartbeatAck{hb1.nonce, hb1.send_unix_ns});

  // Session 2: replay session 1's nonce first, then answer honestly.
  Socket second = accept_one();
  ASSERT_TRUE(second.valid());
  StreamDecoder second_decoder;
  const Heartbeat hb2 = read_heartbeat(second, second_decoder);
  ASSERT_NE(hb2.nonce, 0u);
  EXPECT_NE(hb2.nonce, hb1.nonce);  // the regression: both used to be 1
  send_raw(second, HeartbeatAck{hb1.nonce, hb1.send_unix_ns});  // stale
  std::this_thread::sleep_for(50ms);
  send_raw(second, HeartbeatAck{hb2.nonce, hb2.send_unix_ns});

  client.join();
  EXPECT_EQ(rtt_failures, 0u);
}

}  // namespace
}  // namespace ptm::transport
