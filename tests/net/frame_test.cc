// Wire-layer tests: frame roundtrip over a real loopback socket, and the
// property the fabric's robustness rests on — every way a payload can be
// damaged (flipped byte, truncation, garbage header, dead peer) surfaces
// as a distinct, classifiable error from recv_frame, never as a partial
// or silently-wrong result.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "net/chaos.h"
#include "net/frame.h"
#include "net/socket.h"

namespace stbpu::net {
namespace {

/// Loopback pair: a listener plus a connected client/server TcpConn couple.
struct Loopback {
  TcpListener listener;
  TcpConn client;
  TcpConn server;

  void open() {
    std::string err;
    ASSERT_TRUE(listener.listen(0, err)) << err;
    ASSERT_TRUE(TcpConn::connect("127.0.0.1", listener.port(), 2'000, client, err))
        << err;
    ASSERT_EQ(listener.accept(server, 2'000, err), 1) << err;
  }
};

std::int64_t deadline_in(int ms) { return mono_now_ms() + ms; }

TEST(Frame, Fnv1a64KnownVectors) {
  // Reference values from the FNV-1a specification.
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Frame, RoundTripOverLoopback) {
  Loopback lb;
  lb.open();

  const std::string payload = R"({"scenario": "fig5_smt", "points": [0, 1]})";
  std::string err;
  ASSERT_TRUE(send_frame(lb.client, FrameType::kRequest, payload, deadline_in(2'000),
                         err))
      << err;

  FrameType type{};
  std::string got;
  ASSERT_TRUE(recv_frame(lb.server, type, got, deadline_in(2'000), err)) << err;
  EXPECT_EQ(type, FrameType::kRequest);
  EXPECT_EQ(got, payload);

  // And the other direction, with an empty payload.
  ASSERT_TRUE(send_frame(lb.server, FrameType::kError, "", deadline_in(2'000), err))
      << err;
  ASSERT_TRUE(recv_frame(lb.client, type, got, deadline_in(2'000), err)) << err;
  EXPECT_EQ(type, FrameType::kError);
  EXPECT_TRUE(got.empty());
}

TEST(Frame, FlippedPayloadByteFailsChecksum) {
  Loopback lb;
  lb.open();

  std::string wire = encode_frame(FrameType::kResponse, "shard payload bytes");
  wire[kFrameHeaderBytes + 3] ^= 0x5A;  // corrupt one payload byte
  std::string err;
  ASSERT_TRUE(lb.client.send_all(wire.data(), wire.size(), deadline_in(2'000), err))
      << err;

  FrameType type{};
  std::string got;
  EXPECT_FALSE(recv_frame(lb.server, type, got, deadline_in(2'000), err));
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(Frame, TruncatedPayloadFailsWithEof) {
  Loopback lb;
  lb.open();

  // Full header declaring the whole payload, but only half of it sent
  // before the peer closes — exactly the chaos kCorruptTruncate shape.
  const std::string wire = encode_frame(FrameType::kResponse, "0123456789abcdef");
  std::string err;
  ASSERT_TRUE(lb.client.send_all(wire.data(), kFrameHeaderBytes + 8, deadline_in(2'000),
                                 err))
      << err;
  lb.client.close();

  FrameType type{};
  std::string got;
  EXPECT_FALSE(recv_frame(lb.server, type, got, deadline_in(2'000), err));
  EXPECT_NE(err.find("connection closed"), std::string::npos) << err;
}

TEST(Frame, OverclaimedLengthAllocatesOnlyWhatArrives) {
  Loopback lb;
  lb.open();

  // A valid header claiming a 200 MiB payload, then the peer closes. The
  // receive must fail as a truncated frame without first allocating the
  // claimed length.
  std::string wire = encode_frame(FrameType::kResponse, "");
  const std::uint32_t claimed = 200u << 20;
  for (int i = 0; i < 4; ++i) wire[5 + i] = static_cast<char>((claimed >> (8 * i)) & 0xFF);
  std::string err;
  ASSERT_TRUE(lb.client.send_all(wire.data(), kFrameHeaderBytes, deadline_in(2'000), err))
      << err;
  lb.client.close();

  FrameType type{};
  std::string got;
  EXPECT_FALSE(recv_frame(lb.server, type, got, deadline_in(2'000), err));
  EXPECT_NE(err.find("connection closed"), std::string::npos) << err;
  EXPECT_LT(got.capacity(), std::size_t{2} << 20);
}

TEST(Frame, GarbageHeaderFailsMagicCheck) {
  Loopback lb;
  lb.open();

  std::string wire(kFrameHeaderBytes + 4, '\x7f');
  std::string err;
  ASSERT_TRUE(lb.client.send_all(wire.data(), wire.size(), deadline_in(2'000), err))
      << err;

  FrameType type{};
  std::string got;
  EXPECT_FALSE(recv_frame(lb.server, type, got, deadline_in(2'000), err));
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(Frame, RecvHonorsDeadline) {
  Loopback lb;
  lb.open();

  // Nothing is ever sent: the receive must give up at the deadline with a
  // classifiable timeout error, not hang.
  FrameType type{};
  std::string got, err;
  const std::int64_t t0 = mono_now_ms();
  EXPECT_FALSE(recv_frame(lb.server, type, got, deadline_in(120), err));
  EXPECT_NE(err.find("deadline exceeded"), std::string::npos) << err;
  EXPECT_LT(mono_now_ms() - t0, 5'000);
}

TEST(Chaos, ParsesSpecStrings) {
  ChaosSpec spec;
  std::string err;
  ASSERT_TRUE(ChaosSpec::parse("drop:0.25,stall:50,corrupt:0.1,seed:7", spec, err))
      << err;
  EXPECT_DOUBLE_EQ(spec.drop_p, 0.25);
  EXPECT_DOUBLE_EQ(spec.corrupt_p, 0.1);
  EXPECT_EQ(spec.stall_ms, 50u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.enabled());

  // Subsets and reordering are fine.
  ASSERT_TRUE(ChaosSpec::parse("seed:3,drop:1", spec, err)) << err;
  EXPECT_DOUBLE_EQ(spec.drop_p, 1.0);
  EXPECT_EQ(spec.seed, 3u);

  // Out-of-range probability, unknown key, malformed value: all rejected.
  EXPECT_FALSE(ChaosSpec::parse("drop:1.5", spec, err));
  EXPECT_FALSE(ChaosSpec::parse("explode:1", spec, err));
  EXPECT_FALSE(ChaosSpec::parse("drop:abc", spec, err));
  EXPECT_FALSE(ChaosSpec::parse("drop", spec, err));
}

TEST(Chaos, SameSeedSameVerdictSequence) {
  ChaosSpec spec;
  std::string err;
  ASSERT_TRUE(ChaosSpec::parse("drop:0.4,stall:10,corrupt:0.4,seed:42", spec, err))
      << err;

  ChaosEngine a(spec);
  ChaosEngine b(spec);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "verdict " << i;
  }
  EXPECT_EQ(a.log(), b.log());

  // A different seed must diverge somewhere in the sequence.
  spec.seed = 43;
  ChaosEngine c(spec);
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) diverged = !(c.next() == a.log()[i]);
  EXPECT_TRUE(diverged);
}

TEST(Chaos, DisabledSpecNeverInjects) {
  ChaosEngine engine{ChaosSpec{}};
  for (int i = 0; i < 16; ++i) {
    const ChaosVerdict v = engine.next();
    EXPECT_EQ(v.action, ChaosAction::kNone);
    EXPECT_EQ(v.stall_ms, 0u);
  }
}

}  // namespace
}  // namespace stbpu::net
