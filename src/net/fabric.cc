#include "src/net/fabric.h"

namespace cionet {

namespace {

// The target address of an ARP request, or nothing for any other frame.
std::optional<Ipv4Address> ArpRequestTarget(const EthernetHeader& header,
                                            ciobase::ByteSpan frame) {
  if (header.ether_type != kEtherTypeArp) {
    return std::nullopt;
  }
  auto arp = ArpPacket::Parse(frame.subspan(kEthernetHeaderSize));
  if (!arp.ok() || arp->op != kArpOpRequest) {
    return std::nullopt;
  }
  return arp->target_ip;
}

}  // namespace

EndpointId Fabric::Attach(std::string name, MacAddress mac,
                          std::optional<Ipv4Address> ip) {
  endpoints_.push_back(Endpoint{std::move(name), mac, ip, {}, true});
  return EndpointId{static_cast<uint32_t>(endpoints_.size() - 1)};
}

void Fabric::Detach(EndpointId endpoint) {
  if (endpoint.value < endpoints_.size()) {
    endpoints_[endpoint.value].attached = false;
    endpoints_[endpoint.value].queue.clear();
  }
}

void Fabric::Deliver(EndpointId from, Endpoint& to, ciobase::ByteSpan frame) {
  if (rng_.NextBool(options_.loss_probability)) {
    ++stats_.frames_dropped_loss;
    return;
  }
  PendingFrame pending{clock_->now_ns() + options_.latency_ns,
                       ciobase::Buffer(frame.begin(), frame.end())};
  if (!to.queue.empty() && rng_.NextBool(options_.reorder_probability)) {
    // Swap with the most recent queued frame: a simple one-step reorder.
    to.queue.insert(to.queue.end() - 1, std::move(pending));
    ++stats_.frames_reordered;
  } else {
    to.queue.push_back(std::move(pending));
  }
  ++stats_.frames_routed;
  stats_.bytes_routed += frame.size();
  if (capture_enabled_) {
    EndpointId to_id{static_cast<uint32_t>(&to - endpoints_.data())};
    capture_.push_back(CapturedFrame{clock_->now_ns(), from, to_id,
                                     ciobase::Buffer(frame.begin(),
                                                     frame.end())});
  }
}

ciobase::Status Fabric::Inject(EndpointId from, ciobase::ByteSpan frame) {
  if (frame.size() > options_.max_frame) {
    ++stats_.frames_dropped_oversize;
    return ciobase::InvalidArgument("oversize frame");
  }
  auto header = EthernetHeader::Parse(frame);
  if (!header.ok()) {
    ++stats_.frames_dropped_unknown;
    return header.status();
  }
  if (header->dst.IsBroadcast()) {
    // ARP suppression, as a cloud vswitch does it: a request whose target
    // another attached endpoint is bound to reaches only that endpoint, so
    // bringing up N nodes delivers O(N) requests rather than O(N^2).
    std::optional<Ipv4Address> target = ArpRequestTarget(*header, frame);
    auto other = [&](size_t i) {
      return i != from.value && endpoints_[i].attached;
    };
    bool owned = false;
    for (size_t i = 0; target && !owned && i < endpoints_.size(); ++i) {
      owned = other(i) && endpoints_[i].ip == target;
    }
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      if (other(i) && (!owned || endpoints_[i].ip == target)) {
        Deliver(from, endpoints_[i], frame);
      }
    }
    return ciobase::OkStatus();
  }
  for (Endpoint& endpoint : endpoints_) {
    if (endpoint.attached && endpoint.mac == header->dst) {
      Deliver(from, endpoint, frame);
      return ciobase::OkStatus();
    }
  }
  ++stats_.frames_dropped_unknown;
  return ciobase::OkStatus();  // unknown unicast: silently dropped
}

ciobase::Result<ciobase::Buffer> Fabric::Poll(EndpointId endpoint) {
  Endpoint& ep = endpoints_[endpoint.value];
  if (ep.queue.empty() ||
      ep.queue.front().deliver_at_ns > clock_->now_ns()) {
    return ciobase::Unavailable("no frame");
  }
  ciobase::Buffer frame = std::move(ep.queue.front().frame);
  ep.queue.pop_front();
  return frame;
}

}  // namespace cionet
