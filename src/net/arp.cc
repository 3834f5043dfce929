#include "src/net/arp.h"

namespace cionet {

std::optional<MacAddress> ArpCache::Lookup(Ipv4Address ip) const {
  auto it = entries_.find(ip.value);
  if (it == entries_.end() || it->second.expires_ns < clock_->now_ns()) {
    return std::nullopt;
  }
  return it->second.mac;
}

void ArpCache::Insert(Ipv4Address ip, MacAddress mac) {
  entries_[ip.value] = Entry{mac, clock_->now_ns() + kEntryTtlNs};
}

ciobase::Buffer ArpCache::MakeRequestFrame(Ipv4Address ip) const {
  ciobase::Buffer frame;
  EthernetHeader eth{MacAddress::Broadcast(), own_mac_, kEtherTypeArp};
  eth.Serialize(frame);
  ArpPacket arp;
  arp.op = kArpOpRequest;
  arp.sender_mac = own_mac_;
  arp.sender_ip = own_ip_;
  arp.target_mac = MacAddress{};  // unknown
  arp.target_ip = ip;
  arp.Serialize(frame);
  return frame;
}

std::optional<ciobase::Buffer> ArpCache::HandlePacket(
    ciobase::ByteSpan payload) {
  auto arp = ArpPacket::Parse(payload);
  if (!arp.ok()) {
    return std::nullopt;
  }
  // RFC 826's merge rule: refresh the sender's entry if there is one, and
  // add it only when this node is the target. An overheard broadcast, or a
  // packet injected for another address, plants nothing.
  bool for_us = arp->target_ip == own_ip_;
  if (for_us || entries_.contains(arp->sender_ip.value)) {
    Insert(arp->sender_ip, arp->sender_mac);
  }
  if (arp->op == kArpOpRequest && for_us) {
    ciobase::Buffer frame;
    EthernetHeader eth{arp->sender_mac, own_mac_, kEtherTypeArp};
    eth.Serialize(frame);
    ArpPacket reply;
    reply.op = kArpOpReply;
    reply.sender_mac = own_mac_;
    reply.sender_ip = own_ip_;
    reply.target_mac = arp->sender_mac;
    reply.target_ip = arp->sender_ip;
    reply.Serialize(frame);
    return frame;
  }
  return std::nullopt;
}

bool ArpCache::RequestRecentlySent(Ipv4Address ip) const {
  auto it = last_request_ns_.find(ip.value);
  return it != last_request_ns_.end() &&
         clock_->now_ns() < it->second + kRequestBackoffNs;
}

void ArpCache::NoteRequestSent(Ipv4Address ip) {
  last_request_ns_[ip.value] = clock_->now_ns();
}

}  // namespace cionet
