// ARP resolver and cache (RFC 826, IPv4-over-Ethernet).

#ifndef SRC_NET_ARP_H_
#define SRC_NET_ARP_H_

#include <map>
#include <optional>

#include "src/base/clock.h"
#include "src/net/wire.h"

namespace cionet {

class ArpCache {
 public:
  ArpCache(ciobase::SimClock* clock, MacAddress own_mac, Ipv4Address own_ip)
      : clock_(clock), own_mac_(own_mac), own_ip_(own_ip) {}

  std::optional<MacAddress> Lookup(Ipv4Address ip) const;
  void Insert(Ipv4Address ip, MacAddress mac);

  // Builds a full Ethernet broadcast frame asking for `ip`.
  ciobase::Buffer MakeRequestFrame(Ipv4Address ip) const;

  // Handles an incoming ARP payload, parsing it once: refreshes the sender's
  // entry, or adds it when the packet targets this node (RFC 826). Returns a
  // reply frame if one is due.
  std::optional<ciobase::Buffer> HandlePacket(ciobase::ByteSpan payload);

  // True if a request for `ip` was sent within the backoff window; used by
  // the stack to avoid flooding while resolution is pending.
  bool RequestRecentlySent(Ipv4Address ip) const;
  void NoteRequestSent(Ipv4Address ip);

  static constexpr uint64_t kEntryTtlNs = 60ULL * 1'000'000'000;  // 60 s
  static constexpr uint64_t kRequestBackoffNs = 100'000'000;      // 100 ms

 private:
  ciobase::SimClock* clock_;
  MacAddress own_mac_;
  Ipv4Address own_ip_;
  struct Entry {
    MacAddress mac;
    uint64_t expires_ns;
  };
  std::map<uint32_t, Entry> entries_;
  std::map<uint32_t, uint64_t> last_request_ns_;
};

}  // namespace cionet

#endif  // SRC_NET_ARP_H_
