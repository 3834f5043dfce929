// Unit tests for wire formats, checksums, ARP, IPv4 fragmentation and UDP.

#include <gtest/gtest.h>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/net/arp.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"
#include "src/net/wire.h"

namespace {

using ciobase::Buffer;
using ciobase::ByteSpan;
using namespace cionet;  // NOLINT: test file

TEST(Addresses, MacFormatting) {
  MacAddress mac = MacAddress::FromId(0x01020304);
  EXPECT_EQ(mac.ToString(), "02:00:01:02:03:04");
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_FALSE(mac.IsBroadcast());
}

TEST(Addresses, Ipv4Formatting) {
  Ipv4Address ip = Ipv4Address::FromOctets(192, 168, 1, 42);
  EXPECT_EQ(ip.ToString(), "192.168.1.42");
  EXPECT_EQ(ip.value, 0xc0a8012au);
}

TEST(Ethernet, RoundTrip) {
  EthernetHeader header{MacAddress::FromId(1), MacAddress::FromId(2),
                        kEtherTypeIpv4};
  Buffer frame;
  header.Serialize(frame);
  ASSERT_EQ(frame.size(), kEthernetHeaderSize);
  auto parsed = EthernetHeader::Parse(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dst, header.dst);
  EXPECT_EQ(parsed->src, header.src);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
  EXPECT_FALSE(EthernetHeader::Parse(ByteSpan(frame.data(), 13)).ok());
}

TEST(Checksum, Rfc1071Example) {
  // Classic example: 0x0001f203f4f5f6f7 -> checksum 0x220d.
  Buffer data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data), 0x220d);
}

TEST(Checksum, VerifiesToZero) {
  ciobase::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Buffer data = rng.Bytes(rng.NextInRange(2, 100));
    uint16_t checksum = InternetChecksum(data);
    // Append the checksum and re-sum: must verify to 0 for even lengths.
    if (data.size() % 2 == 0) {
      Buffer with = data;
      with.push_back(static_cast<uint8_t>(checksum >> 8));
      with.push_back(static_cast<uint8_t>(checksum));
      EXPECT_EQ(InternetChecksum(with), 0);
    }
  }
}

TEST(Ipv4, HeaderRoundTripAndChecksum) {
  Ipv4Header header;
  header.total_length = 40;
  header.identification = 7;
  header.protocol = kIpProtoTcp;
  header.src = Ipv4Address::FromOctets(10, 0, 0, 1);
  header.dst = Ipv4Address::FromOctets(10, 0, 0, 2);
  Buffer packet;
  header.Serialize(packet);
  packet.resize(40);  // pad to declared size
  auto parsed = Ipv4Header::Parse(packet);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->src, header.src);
  EXPECT_EQ(parsed->dst, header.dst);
  EXPECT_EQ(parsed->protocol, kIpProtoTcp);

  packet[15] ^= 0xff;  // corrupt a header byte
  auto corrupted = Ipv4Header::Parse(packet);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), ciobase::StatusCode::kTampered);
}

TEST(Ipv4, RejectsBadGeometry) {
  Buffer short_packet(10, 0);
  EXPECT_FALSE(Ipv4Header::Parse(short_packet).ok());
  Ipv4Header header;
  header.total_length = 20;
  header.src = Ipv4Address::FromOctets(1, 1, 1, 1);
  header.dst = Ipv4Address::FromOctets(2, 2, 2, 2);
  Buffer packet;
  header.Serialize(packet);
  packet[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::Parse(packet).ok());
}

TEST(Ipv4Fragmentation, SmallPayloadUnfragmented) {
  Ipv4Header header;
  header.protocol = kIpProtoUdp;
  header.src = Ipv4Address::FromOctets(1, 1, 1, 1);
  header.dst = Ipv4Address::FromOctets(2, 2, 2, 2);
  ciobase::Rng rng(2);
  Buffer payload = rng.Bytes(100);
  auto packets = FragmentIpv4(header, payload, 1500);
  ASSERT_EQ(packets.size(), 1u);
  auto parsed = Ipv4Header::Parse(packets[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->flags_fragment, 0);
}

class FragmentReassembleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FragmentReassembleTest, RoundTrip) {
  Ipv4Header header;
  header.protocol = kIpProtoUdp;
  header.identification = 99;
  header.src = Ipv4Address::FromOctets(1, 1, 1, 1);
  header.dst = Ipv4Address::FromOctets(2, 2, 2, 2);
  ciobase::Rng rng(GetParam());
  Buffer payload = rng.Bytes(GetParam());
  auto packets = FragmentIpv4(header, payload, 1500);
  if (GetParam() + kIpv4HeaderSize > 1500) {
    EXPECT_GT(packets.size(), 1u);
  }
  ciobase::SimClock clock;
  Ipv4Reassembler reassembler(&clock);
  std::optional<ReassembledDatagram> result;
  for (const auto& packet : packets) {
    auto parsed = Ipv4Header::Parse(packet);
    ASSERT_TRUE(parsed.ok());
    result = reassembler.Add(*parsed,
                             ByteSpan(packet).subspan(kIpv4HeaderSize));
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentReassembleTest,
                         ::testing::Values(10, 1480, 1481, 3000, 8000, 20000));

TEST(Ipv4Reassembly, OutOfOrderFragments) {
  Ipv4Header header;
  header.protocol = kIpProtoUdp;
  header.identification = 5;
  header.src = Ipv4Address::FromOctets(1, 1, 1, 1);
  header.dst = Ipv4Address::FromOctets(2, 2, 2, 2);
  ciobase::Rng rng(11);
  Buffer payload = rng.Bytes(4000);
  auto packets = FragmentIpv4(header, payload, 1500);
  ASSERT_GE(packets.size(), 3u);
  std::reverse(packets.begin(), packets.end());
  ciobase::SimClock clock;
  Ipv4Reassembler reassembler(&clock);
  std::optional<ReassembledDatagram> result;
  for (const auto& packet : packets) {
    auto parsed = Ipv4Header::Parse(packet);
    ASSERT_TRUE(parsed.ok());
    result = reassembler.Add(*parsed,
                             ByteSpan(packet).subspan(kIpv4HeaderSize));
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, payload);
}

TEST(Ipv4Reassembly, TimeoutDropsStaleState) {
  Ipv4Header header;
  header.protocol = kIpProtoUdp;
  header.identification = 5;
  header.flags_fragment = kIpv4FlagMoreFragments;
  header.src = Ipv4Address::FromOctets(1, 1, 1, 1);
  header.dst = Ipv4Address::FromOctets(2, 2, 2, 2);
  ciobase::SimClock clock;
  Ipv4Reassembler reassembler(&clock);
  Buffer fragment(64, 1);
  EXPECT_FALSE(reassembler.Add(header, fragment).has_value());
  EXPECT_EQ(reassembler.pending(), 1u);
  clock.Advance(Ipv4Reassembler::kTimeoutNs + 1);
  reassembler.Expire();
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Ipv4Reassembly, HostileGeometryDropped) {
  // Fragment claiming to end past 64 KiB must be discarded entirely.
  Ipv4Header header;
  header.protocol = kIpProtoUdp;
  header.identification = 6;
  header.flags_fragment = 0x1fff;  // max offset
  header.src = Ipv4Address::FromOctets(1, 1, 1, 1);
  header.dst = Ipv4Address::FromOctets(2, 2, 2, 2);
  ciobase::SimClock clock;
  Ipv4Reassembler reassembler(&clock);
  Buffer fragment(4000, 1);  // 0x1fff*8 + 4000 > 65535
  EXPECT_FALSE(reassembler.Add(header, fragment).has_value());
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Udp, BuildParseRoundTrip) {
  Ipv4Address src = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address dst = Ipv4Address::FromOctets(10, 0, 0, 2);
  Buffer payload = ciobase::BufferFromString("datagram");
  Buffer datagram = BuildUdpDatagram(src, dst, 1111, 2222, payload);
  auto parsed = ParseUdpDatagram(src, dst, datagram);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.src_port, 1111);
  EXPECT_EQ(parsed->header.dst_port, 2222);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Udp, ChecksumCatchesCorruption) {
  Ipv4Address src = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address dst = Ipv4Address::FromOctets(10, 0, 0, 2);
  Buffer datagram = BuildUdpDatagram(src, dst, 1, 2,
                                     ciobase::BufferFromString("xyz"));
  datagram.back() ^= 0x01;
  auto parsed = ParseUdpDatagram(src, dst, datagram);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ciobase::StatusCode::kTampered);
}

TEST(Tcp, HeaderRoundTripWithMss) {
  TcpHeader header;
  header.src_port = 80;
  header.dst_port = 5000;
  header.seq = 0x11223344;
  header.ack = 0x55667788;
  header.flags = kTcpFlagSyn | kTcpFlagAck;
  header.window = 4096;
  header.mss_option = 1460;
  Buffer segment;
  header.Serialize(segment);
  ASSERT_EQ(segment.size(), 24u);
  auto parsed = TcpHeader::Parse(segment);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->seq, header.seq);
  EXPECT_EQ(parsed->ack, header.ack);
  EXPECT_EQ(parsed->flags, header.flags);
  EXPECT_EQ(parsed->mss_option, 1460);
}

TEST(Tcp, RejectsBadOptions) {
  TcpHeader header;
  header.mss_option = 1460;
  Buffer segment;
  header.Serialize(segment);
  segment[21] = 0;  // option length 0
  EXPECT_FALSE(TcpHeader::Parse(segment).ok());
  segment[21] = 40;  // option length beyond header
  EXPECT_FALSE(TcpHeader::Parse(segment).ok());
}

TEST(Tcp, SeqArithmeticWraps) {
  EXPECT_TRUE(SeqLt(0xfffffff0u, 0x10u));  // wrapped compare
  EXPECT_TRUE(SeqGt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(SeqLe(5, 5));
  EXPECT_TRUE(SeqGe(5, 5));
  EXPECT_FALSE(SeqLt(5, 5));
}

TEST(Arp, RequestReplyCycle) {
  ciobase::SimClock clock;
  MacAddress mac_a = MacAddress::FromId(1);
  MacAddress mac_b = MacAddress::FromId(2);
  Ipv4Address ip_a = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address ip_b = Ipv4Address::FromOctets(10, 0, 0, 2);
  ArpCache cache_a(&clock, mac_a, ip_a);
  ArpCache cache_b(&clock, mac_b, ip_b);

  Buffer request = cache_a.MakeRequestFrame(ip_b);
  auto reply = cache_b.HandlePacket(
      ByteSpan(request).subspan(kEthernetHeaderSize));
  ASSERT_TRUE(reply.has_value());
  // B learned A from the request.
  ASSERT_TRUE(cache_b.Lookup(ip_a).has_value());
  EXPECT_EQ(*cache_b.Lookup(ip_a), mac_a);
  // A learns B from the reply.
  auto no_reply = cache_a.HandlePacket(
      ByteSpan(*reply).subspan(kEthernetHeaderSize));
  EXPECT_FALSE(no_reply.has_value());
  ASSERT_TRUE(cache_a.Lookup(ip_b).has_value());
  EXPECT_EQ(*cache_a.Lookup(ip_b), mac_b);
}

TEST(Arp, RequestForAnotherAddressAddsNoEntry) {
  ciobase::SimClock clock;
  Ipv4Address ip_a = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address ip_b = Ipv4Address::FromOctets(10, 0, 0, 2);
  ArpCache cache_a(&clock, MacAddress::FromId(1), ip_a);
  ArpCache bystander(&clock, MacAddress::FromId(3),
                     Ipv4Address::FromOctets(10, 0, 0, 3));
  Buffer request = cache_a.MakeRequestFrame(ip_b);
  EXPECT_FALSE(bystander
                   .HandlePacket(ByteSpan(request).subspan(kEthernetHeaderSize))
                   .has_value());
  EXPECT_FALSE(bystander.Lookup(ip_a).has_value());
}

TEST(Arp, RequestForUsAddsTheSender) {
  ciobase::SimClock clock;
  Ipv4Address ip_a = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address ip_b = Ipv4Address::FromOctets(10, 0, 0, 2);
  ArpCache cache_a(&clock, MacAddress::FromId(1), ip_a);
  ArpCache cache_b(&clock, MacAddress::FromId(2), ip_b);
  Buffer request = cache_a.MakeRequestFrame(ip_b);
  EXPECT_TRUE(
      cache_b.HandlePacket(ByteSpan(request).subspan(kEthernetHeaderSize))
          .has_value());
  ASSERT_TRUE(cache_b.Lookup(ip_a).has_value());
  EXPECT_EQ(*cache_b.Lookup(ip_a), MacAddress::FromId(1));
}

TEST(Arp, PacketFromACachedSenderRefreshesItsEntry) {
  ciobase::SimClock clock;
  Ipv4Address ip_a = Ipv4Address::FromOctets(10, 0, 0, 1);
  ArpCache cache_a(&clock, MacAddress::FromId(1), ip_a);
  ArpCache bystander(&clock, MacAddress::FromId(3),
                     Ipv4Address::FromOctets(10, 0, 0, 3));
  bystander.Insert(ip_a, MacAddress::FromId(9));  // stale MAC
  clock.Advance(ArpCache::kEntryTtlNs / 2);
  // A's request for someone else still refreshes A's existing entry: the
  // new MAC, and a full TTL from now.
  Buffer request =
      cache_a.MakeRequestFrame(Ipv4Address::FromOctets(10, 0, 0, 2));
  EXPECT_FALSE(bystander
                   .HandlePacket(ByteSpan(request).subspan(kEthernetHeaderSize))
                   .has_value());
  clock.Advance(ArpCache::kEntryTtlNs * 3 / 4);
  ASSERT_TRUE(bystander.Lookup(ip_a).has_value());
  EXPECT_EQ(*bystander.Lookup(ip_a), MacAddress::FromId(1));
}

TEST(Arp, EntriesExpire) {
  ciobase::SimClock clock;
  ArpCache cache(&clock, MacAddress::FromId(1),
                 Ipv4Address::FromOctets(10, 0, 0, 1));
  Ipv4Address ip = Ipv4Address::FromOctets(10, 0, 0, 9);
  cache.Insert(ip, MacAddress::FromId(9));
  EXPECT_TRUE(cache.Lookup(ip).has_value());
  clock.Advance(ArpCache::kEntryTtlNs + 1);
  EXPECT_FALSE(cache.Lookup(ip).has_value());
}

}  // namespace
