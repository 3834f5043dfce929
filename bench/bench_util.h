// Shared helpers for the table benchmarks: linked-pair message pumping and
// throughput/latency measurement against the modeled clock.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <deque>
#include <vector>

#include "src/base/rng.h"
#include "src/cio/engine.h"

namespace ciobench {

inline cio::StackConfig MakeNode(cio::StackProfile profile, uint32_t id) {
  cio::StackConfig config = cio::StackConfig::DefaultsFor(profile, id);
  config.seed = 500 + id;
  return config;
}

struct TransferResult {
  bool ok = false;
  uint64_t modeled_ns = 0;   // simulated time for the whole transfer
  uint64_t payload_bytes = 0;
  size_t messages = 0;

  double GbitPerSec() const {
    return modeled_ns == 0
               ? 0.0
               : 8.0 * static_cast<double>(payload_bytes) /
                     static_cast<double>(modeled_ns);
  }
  double MsgPerSec() const {
    return modeled_ns == 0 ? 0.0
                           : 1e9 * static_cast<double>(messages) /
                                 static_cast<double>(modeled_ns);
  }
};

// Streams `count` messages of `size` bytes client->server (server drains),
// measuring modeled time from first send to last delivery.
inline TransferResult BulkTransfer(cio::LinkedPair& pair, size_t count,
                                   size_t size) {
  TransferResult result;
  ciobase::Rng rng(1);
  ciobase::Buffer message = rng.Bytes(size);
  uint64_t start_ns = pair.clock.now_ns();
  size_t sent = 0;
  size_t received = 0;
  bool done = pair.PumpUntil(
      [&] {
        if (sent < count && pair.client->SendMessage(message).ok()) {
          ++sent;
        }
        while (pair.server->ReceiveMessage().ok()) {
          ++received;
        }
        return received == count;
      },
      2'000'000, 5'000);
  result.ok = done;
  result.modeled_ns = pair.clock.now_ns() - start_ns;
  result.payload_bytes = static_cast<uint64_t>(count) * size;
  result.messages = count;
  return result;
}

struct TimedTransferResult : TransferResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Like BulkTransfer, but submits up to `burst` messages per pump round
// (back-to-back into the async submission queue — the first message's
// early doorbell carries it, the next poll's doorbell the rest of the
// burst) and stamps every message from submission to delivery, so the
// per-message latency distribution is measured alongside throughput.
// burst == 1 is the latency-test shape: one message per round, nothing
// queueing behind it.
inline TimedTransferResult BurstTransfer(cio::LinkedPair& pair, size_t count,
                                         size_t size, size_t burst) {
  TimedTransferResult result;
  ciobase::Rng rng(1);
  ciobase::Buffer message = rng.Bytes(size);
  std::deque<uint64_t> sent_at_ns;  // FIFO: delivery is in-order
  std::vector<double> latencies_us;
  latencies_us.reserve(count);
  uint64_t start_ns = pair.clock.now_ns();
  size_t sent = 0;
  size_t received = 0;
  bool done = pair.PumpUntil(
      [&] {
        for (size_t b = 0; b < burst && sent < count; ++b) {
          if (!pair.client->SendMessage(message).ok()) {
            break;
          }
          sent_at_ns.push_back(pair.clock.now_ns());
          ++sent;
        }
        while (pair.server->ReceiveMessage().ok()) {
          if (!sent_at_ns.empty()) {
            latencies_us.push_back(
                static_cast<double>(pair.clock.now_ns() -
                                    sent_at_ns.front()) /
                1000.0);
            sent_at_ns.pop_front();
          }
          ++received;
        }
        return received == count;
      },
      2'000'000, 5'000);
  result.ok = done;
  result.modeled_ns = pair.clock.now_ns() - start_ns;
  result.payload_bytes = static_cast<uint64_t>(count) * size;
  result.messages = count;
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    auto at = [&](double q) {
      return latencies_us[static_cast<size_t>(
          q * static_cast<double>(latencies_us.size() - 1))];
    };
    result.p50_us = at(0.50);
    result.p99_us = at(0.99);
  }
  return result;
}

// Round-trip latency: one small message each way, repeated; returns the
// average modeled RTT in ns.
inline double PingPongRtt(cio::LinkedPair& pair, size_t rounds,
                          size_t size = 64) {
  ciobase::Rng rng(2);
  ciobase::Buffer ping = rng.Bytes(size);
  uint64_t start_ns = pair.clock.now_ns();
  size_t completed = 0;
  bool in_flight = false;
  pair.PumpUntil(
      [&] {
        if (!in_flight) {
          if (pair.client->SendMessage(ping).ok()) {
            in_flight = true;
          }
          return false;
        }
        auto at_server = pair.server->ReceiveMessage();
        if (at_server.ok()) {
          pair.server->SendMessage(*at_server);
        }
        if (pair.client->ReceiveMessage().ok()) {
          ++completed;
          in_flight = false;
        }
        return completed == rounds;
      },
      2'000'000, 2'000);
  if (completed == 0) {
    return 0.0;
  }
  return static_cast<double>(pair.clock.now_ns() - start_ns) /
         static_cast<double>(completed);
}

}  // namespace ciobench

#endif  // BENCH_BENCH_UTIL_H_
