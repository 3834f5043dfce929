// Direct unit tests of the TcpConnection state machine — no stacks, no
// fabric: segments are hand-built and fed in, outputs inspected. Covers
// the handshake transitions, simultaneous close, RST behavior per state,
// zero-window probing, retransmission timeout and backoff, SYN-ACK
// retransmission, MSS negotiation, and what counts as a duplicate ACK
// (RFC 5681 §2) and when it triggers a fast or early retransmit.

#include <gtest/gtest.h>

#include "src/base/clock.h"
#include "src/net/tcp.h"

namespace {

using ciobase::Buffer;
using ciobase::ByteSpan;
using namespace cionet;  // NOLINT: test file

TcpEndpointId Endpoints() {
  return TcpEndpointId{Ipv4Address::FromOctets(10, 0, 0, 1), 1000,
                       Ipv4Address::FromOctets(10, 0, 0, 2), 2000};
}

// Parses the first segment in a connection's output queue.
struct OutSegment {
  TcpHeader header;
  Buffer payload;
};
std::vector<OutSegment> Drain(TcpConnection& conn) {
  std::vector<OutSegment> out;
  for (Buffer& raw : conn.TakeOutput()) {
    auto header = TcpHeader::Parse(raw);
    EXPECT_TRUE(header.ok());
    OutSegment segment;
    segment.header = *header;
    segment.payload.assign(raw.begin() + header->HeaderBytes(), raw.end());
    out.push_back(std::move(segment));
  }
  return out;
}

TcpHeader MakeSegment(uint32_t seq, uint32_t ack, uint8_t flags,
                      uint16_t window = 65535) {
  TcpHeader header;
  header.src_port = 2000;
  header.dst_port = 1000;
  header.seq = seq;
  header.ack = ack;
  header.flags = flags;
  header.window = window;
  return header;
}

// Drives an active open to ESTABLISHED against a scripted peer with
// ISS 5000. Returns the connection.
TcpConnection EstablishedClient(ciobase::SimClock* clock) {
  TcpConnection conn =
      TcpConnection::ActiveOpen(clock, Endpoints(), 1460, /*iss=*/100);
  auto flight = Drain(conn);
  EXPECT_EQ(flight.size(), 1u);
  EXPECT_EQ(flight[0].header.flags, kTcpFlagSyn);
  conn.OnSegment(MakeSegment(5000, 101, kTcpFlagSyn | kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kEstablished);
  Drain(conn);  // the final ACK
  return conn;
}

constexpr uint32_t kMss = 1460;

// Data segments in `out`.
size_t DataSegments(const std::vector<OutSegment>& out) {
  size_t n = 0;
  for (const OutSegment& segment : out) {
    n += segment.payload.empty() ? 0 : 1;
  }
  return n;
}

// An established client with `segments` full-sized segments outstanding
// and nothing unsent: slow start is walked up first, one ACK per segment.
// `snd_una` is what the peer's duplicate ACKs repeat.
struct Flight {
  TcpConnection conn;
  uint32_t snd_una;
};
Flight OutstandingFlight(ciobase::SimClock* clock, uint32_t segments) {
  Flight flight{EstablishedClient(clock), 101};
  while (flight.conn.cwnd() < segments * kMss) {
    EXPECT_TRUE(flight.conn.Send(Buffer(kMss, 'w')).ok());
    Drain(flight.conn);
    flight.snd_una += kMss;
    flight.conn.OnSegment(MakeSegment(5001, flight.snd_una, kTcpFlagAck), {});
  }
  EXPECT_TRUE(flight.conn.Send(Buffer(segments * kMss, 'f')).ok());
  EXPECT_EQ(DataSegments(Drain(flight.conn)), segments);
  return flight;
}

TEST(TcpUnit, ActiveOpenHandshake) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  EXPECT_FALSE(conn.failed());
}

TEST(TcpUnit, BadSynAckAcknowledgmentIsFatal) {
  ciobase::SimClock clock;
  TcpConnection conn =
      TcpConnection::ActiveOpen(&clock, Endpoints(), 1460, 100);
  Drain(conn);
  // Peer acks the wrong sequence number (Iago-style confusion).
  conn.OnSegment(MakeSegment(5000, 999, kTcpFlagSyn | kTcpFlagAck), {});
  EXPECT_TRUE(conn.failed());
  auto out = Drain(conn);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].header.flags & kTcpFlagRst);
}

TEST(TcpUnit, PassiveOpenRetransmittedSynGetsSynAckAgain) {
  ciobase::SimClock clock;
  TcpHeader syn = MakeSegment(5000, 0, kTcpFlagSyn);
  syn.mss_option = 1200;
  TcpConnection conn =
      TcpConnection::PassiveOpen(&clock, Endpoints(), 1460, 100, syn);
  auto first = Drain(conn);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].header.flags, kTcpFlagSyn | kTcpFlagAck);
  EXPECT_EQ(first[0].header.mss_option, 1200);  // negotiated down
  // The client's SYN again (our SYN-ACK was lost).
  conn.OnSegment(syn, {});
  auto second = Drain(conn);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].header.flags, kTcpFlagSyn | kTcpFlagAck);
}

TEST(TcpUnit, DataSendAndAck) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  Buffer data = ciobase::BufferFromString("hello");
  ASSERT_TRUE(conn.Send(data).ok());
  auto out = Drain(conn);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, data);
  EXPECT_EQ(out[0].header.seq, 101u);
  conn.OnSegment(MakeSegment(5001, 106, kTcpFlagAck), {});
  EXPECT_FALSE(conn.failed());
}

// The send buffer starts at snd_una, so bytes already acknowledged are no
// longer in it: a Close() while the peer's window holds data back must not
// let the FIN leave ahead of that data.
TEST(TcpUnit, FinWaitsForDataTheWindowHeldBack) {
  ciobase::SimClock clock;
  TcpConnection conn =
      TcpConnection::ActiveOpen(&clock, Endpoints(), 1460, /*iss=*/100);
  Drain(conn);
  // The peer's window holds one segment.
  conn.OnSegment(MakeSegment(5000, 101, kTcpFlagSyn | kTcpFlagAck, 1460), {});
  Drain(conn);
  ASSERT_TRUE(conn.Send(Buffer(3000, 0xab)).ok());
  EXPECT_EQ(Drain(conn).size(), 1u);
  // The first segment is acknowledged: the second leaves, 80 bytes wait.
  conn.OnSegment(MakeSegment(5001, 1561, kTcpFlagAck, 1460), {});
  EXPECT_EQ(Drain(conn).size(), 1u);
  conn.Close();
  for (const OutSegment& segment : Drain(conn)) {
    EXPECT_EQ(segment.header.flags & kTcpFlagFin, 0) << "FIN overtook data";
  }
  // The second segment is acknowledged: the last 80 bytes, then the FIN.
  conn.OnSegment(MakeSegment(5001, 3021, kTcpFlagAck, 1460), {});
  auto out = Drain(conn);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].header.seq, 3021u);
  EXPECT_EQ(out[0].payload.size(), 80u);
  EXPECT_NE(out[1].header.flags & kTcpFlagFin, 0);
  EXPECT_EQ(out[1].header.seq, 3101u);
}

TEST(TcpUnit, RetransmissionOnTimeoutWithBackoff) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  ASSERT_TRUE(conn.Send(ciobase::BufferFromString("lost")).ok());
  Drain(conn);
  uint64_t rto1 = conn.current_rto_ns();
  clock.Advance(rto1 + 1);
  conn.PollTimers();
  auto retrans = Drain(conn);
  ASSERT_EQ(retrans.size(), 1u);
  EXPECT_EQ(retrans[0].header.seq, 101u);  // same data again
  EXPECT_EQ(conn.stats().timeouts, 1u);
  EXPECT_GE(conn.current_rto_ns(), 2 * rto1);  // exponential backoff
}

TEST(TcpUnit, RetryExhaustionFailsConnection) {
  ciobase::SimClock clock;
  TcpConnection::Tuning tuning;
  tuning.max_retries = 2;
  TcpConnection conn = TcpConnection::ActiveOpen(&clock, Endpoints(), 1460,
                                                 100, tuning);
  for (int i = 0; i < 4; ++i) {
    clock.Advance(conn.current_rto_ns() + 1);
    conn.PollTimers();
  }
  EXPECT_TRUE(conn.failed());
  EXPECT_EQ(conn.state(), TcpState::kClosed);
}

TEST(TcpUnit, FastRetransmitOnTripleDupAck) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  ASSERT_TRUE(conn.Send(Buffer(3000, 'x')).ok());  // > 2 segments
  Drain(conn);
  for (int i = 0; i < 3; ++i) {
    conn.OnSegment(MakeSegment(5001, 101, kTcpFlagAck), {});
  }
  EXPECT_EQ(conn.stats().fast_retransmits, 1u);
  auto out = Drain(conn);
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out[0].header.seq, 101u);
}

// The peer's own data acknowledges snd_una whenever it has nothing new to
// ack: bidirectional traffic, not a loss signal.
TEST(TcpUnit, PeerDataAtSndUnaIsNotADuplicateAck) {
  ciobase::SimClock clock;
  Flight flight = OutstandingFlight(&clock, 4);
  const uint32_t cwnd = flight.conn.cwnd();
  for (uint32_t i = 0; i < 3; ++i) {
    flight.conn.OnSegment(
        MakeSegment(5001 + 100 * i, flight.snd_una, kTcpFlagAck),
        Buffer(100, 'd'));
  }
  EXPECT_EQ(flight.conn.stats().dup_acks, 0u);
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 0u);
  EXPECT_EQ(flight.conn.cwnd(), cwnd);
  EXPECT_EQ(DataSegments(Drain(flight.conn)), 0u);
}

TEST(TcpUnit, WindowUpdatesAreNotDuplicateAcks) {
  ciobase::SimClock clock;
  Flight flight = OutstandingFlight(&clock, 4);
  for (uint16_t window : {60000, 50000, 40000}) {
    flight.conn.OnSegment(
        MakeSegment(5001, flight.snd_una, kTcpFlagAck, window), {});
  }
  EXPECT_EQ(flight.conn.stats().dup_acks, 0u);
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 0u);
  // The same ACK with the window left alone is a duplicate again.
  for (int i = 0; i < 3; ++i) {
    flight.conn.OnSegment(
        MakeSegment(5001, flight.snd_una, kTcpFlagAck, 40000), {});
  }
  EXPECT_EQ(flight.conn.stats().dup_acks, 3u);
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 1u);
}

TEST(TcpUnit, SynAndFinSegmentsAreNotDuplicateAcks) {
  ciobase::SimClock clock;
  Flight flight = OutstandingFlight(&clock, 4);
  for (int i = 0; i < 2; ++i) {
    flight.conn.OnSegment(
        MakeSegment(5001, flight.snd_una, kTcpFlagSyn | kTcpFlagAck), {});
  }
  for (int i = 0; i < 2; ++i) {  // the peer's FIN, then its retransmission
    flight.conn.OnSegment(
        MakeSegment(5001, flight.snd_una, kTcpFlagFin | kTcpFlagAck), {});
  }
  EXPECT_EQ(flight.conn.state(), TcpState::kCloseWait);
  EXPECT_EQ(flight.conn.stats().dup_acks, 0u);
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 0u);
  EXPECT_EQ(DataSegments(Drain(flight.conn)), 0u);
}

// Two small segments can draw at most one duplicate ACK, never three.
TEST(TcpUnit, EarlyRetransmitAfterOneDuplicateForASmallFlight) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  ASSERT_TRUE(conn.Send(Buffer(100, 'a')).ok());
  ASSERT_TRUE(conn.Send(Buffer(100, 'b')).ok());
  ASSERT_EQ(DataSegments(Drain(conn)), 2u);
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagAck), {});
  EXPECT_EQ(conn.stats().fast_retransmits, 1u);
  auto out = Drain(conn);
  ASSERT_EQ(DataSegments(out), 1u);
  EXPECT_EQ(out[0].header.seq, 101u);
}

TEST(TcpUnit, NoEarlyRetransmitWithFourSegmentsOutstanding) {
  ciobase::SimClock clock;
  Flight flight = OutstandingFlight(&clock, 4);
  for (int i = 0; i < 2; ++i) {
    flight.conn.OnSegment(MakeSegment(5001, flight.snd_una, kTcpFlagAck), {});
  }
  EXPECT_EQ(flight.conn.stats().dup_acks, 2u);
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 0u);
  EXPECT_EQ(DataSegments(Drain(flight.conn)), 0u);
  flight.conn.OnSegment(MakeSegment(5001, flight.snd_una, kTcpFlagAck), {});
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 1u);
}

TEST(TcpUnit, ARunOfDuplicatesRetransmitsOnce) {
  ciobase::SimClock clock;
  Flight flight = OutstandingFlight(&clock, 4);
  for (int i = 0; i < 8; ++i) {
    flight.conn.OnSegment(MakeSegment(5001, flight.snd_una, kTcpFlagAck), {});
  }
  EXPECT_EQ(flight.conn.stats().dup_acks, 8u);
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 1u);
  EXPECT_EQ(flight.conn.stats().retransmissions, 1u);
  EXPECT_EQ(DataSegments(Drain(flight.conn)), 1u);
  // An ACK of new data ends the run; the next run may retransmit again
  // (three segments left outstanding: early retransmit at two).
  flight.snd_una += kMss;
  flight.conn.OnSegment(MakeSegment(5001, flight.snd_una, kTcpFlagAck), {});
  for (int i = 0; i < 2; ++i) {
    flight.conn.OnSegment(MakeSegment(5001, flight.snd_una, kTcpFlagAck), {});
  }
  EXPECT_EQ(flight.conn.stats().fast_retransmits, 2u);
}

TEST(TcpUnit, RstInEstablishedKillsConnection) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagRst), {});
  EXPECT_TRUE(conn.failed());
  EXPECT_EQ(conn.state(), TcpState::kClosed);
}

TEST(TcpUnit, OutOfWindowRstIgnored) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  // Blind RST with a wrong sequence number: ignored.
  conn.OnSegment(MakeSegment(123456, 101, kTcpFlagRst), {});
  EXPECT_FALSE(conn.failed());
  EXPECT_EQ(conn.state(), TcpState::kEstablished);
}

TEST(TcpUnit, GracefulCloseStateWalk) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  conn.Close();
  auto fin = Drain(conn);
  ASSERT_EQ(fin.size(), 1u);
  EXPECT_TRUE(fin[0].header.flags & kTcpFlagFin);
  EXPECT_EQ(conn.state(), TcpState::kFinWait1);
  conn.OnSegment(MakeSegment(5001, 102, kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kFinWait2);
  conn.OnSegment(MakeSegment(5001, 102, kTcpFlagFin | kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kTimeWait);
  clock.Advance(TcpConnection::Tuning{}.time_wait_ns + 1);
  conn.PollTimers();
  EXPECT_EQ(conn.state(), TcpState::kClosed);
}

TEST(TcpUnit, SimultaneousClose) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  conn.Close();
  Drain(conn);
  // Peer's FIN arrives before its ACK of ours: CLOSING.
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagFin | kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kClosing);
  // Now its ACK of our FIN: TIME_WAIT.
  conn.OnSegment(MakeSegment(5002, 102, kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kTimeWait);
}

TEST(TcpUnit, PeerCloseThenLocalClose) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagFin | kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kCloseWait);
  uint8_t buf[4];
  auto eof = conn.Receive(buf);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);  // orderly EOF
  conn.Close();
  EXPECT_EQ(conn.state(), TcpState::kLastAck);
  Drain(conn);
  conn.OnSegment(MakeSegment(5002, 102, kTcpFlagAck), {});
  EXPECT_EQ(conn.state(), TcpState::kClosed);
}

TEST(TcpUnit, ZeroWindowProbeAfterStall) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  // Peer advertises a zero window.
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagAck, /*window=*/0), {});
  ASSERT_TRUE(conn.Send(ciobase::BufferFromString("stalled data")).ok());
  EXPECT_TRUE(Drain(conn).empty());  // nothing may be sent into window 0
  conn.PollTimers();                 // probe path arms/sends
  auto probes = Drain(conn);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].payload.size(), 1u);  // one-byte window probe
}

TEST(TcpUnit, OutOfOrderSegmentsReassemble) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  Buffer part2 = ciobase::BufferFromString("world");
  Buffer part1 = ciobase::BufferFromString("hello ");
  conn.OnSegment(MakeSegment(5001 + 6, 101, kTcpFlagAck), part2);
  uint8_t buf[32];
  EXPECT_FALSE(conn.Receive(buf).ok());  // hole: nothing readable
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagAck), part1);
  auto got = conn.Receive(buf);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *got), "hello world");
  EXPECT_EQ(conn.stats().ooo_segments, 1u);
}

TEST(TcpUnit, DuplicateDataReAckedNotDoubleDelivered) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  Buffer data = ciobase::BufferFromString("once");
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagAck), data);
  conn.OnSegment(MakeSegment(5001, 101, kTcpFlagAck), data);  // dup
  uint8_t buf[32];
  auto got = conn.Receive(buf);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 4u);
  EXPECT_FALSE(conn.Receive(buf).ok());  // no second copy
}

TEST(TcpUnit, AbortEmitsRst) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  conn.Abort();
  auto out = Drain(conn);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].header.flags & kTcpFlagRst);
  EXPECT_EQ(conn.state(), TcpState::kClosed);
}

TEST(TcpUnit, CwndGrowsInSlowStart) {
  ciobase::SimClock clock;
  TcpConnection conn = EstablishedClient(&clock);
  uint32_t cwnd0 = conn.cwnd();
  ASSERT_TRUE(conn.Send(Buffer(1460, 'x')).ok());
  Drain(conn);
  conn.OnSegment(MakeSegment(5001, 101 + 1460, kTcpFlagAck), {});
  EXPECT_GT(conn.cwnd(), cwnd0);
}

}  // namespace
