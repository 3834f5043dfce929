// The benchmark's workloads and the metric tables they report against.
//
// Every workload fills one name -> value map. main.cc emits the end-to-end
// table for an untraced run and the per-layer table for a traced run, in
// table order; the tables mirror BENCHMARK.json at the repository root.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "common.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// What a user of the system sees; every workload reports all of them.
// wall_ops_per_s is printed but not among them: on a shared host its
// run-to-run spread exceeds any bound a regression gate could use.
inline constexpr MetricDef kEndToEnd[] = {
    {"sim_p50_us", "us"},
    {"sim_p99_us", "us"},
    {"sim_capacity_ops_per_s", "ops/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// One figure per layer, named after the src/ module. Values are per
// completed operation unless the name says otherwise; a layer a workload
// does not run reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"serve.poll.wall_us_per_op", "us"},
    {"serve.app.wall_us_per_op", "us"},
    {"serve.pump.sim_self_us_per_op", "us"},
    {"serve.egress.sim_us_per_op", "us"},
    {"serve.echo_backlog.max", "count"},
    {"serve.send_queue_rejections_per_op", "count"},
    {"cio.l5.crossings_per_op", "count"},
    {"cio.l5.doorbells_per_op", "count"},
    {"cio.l5.sq_backpressure_per_op", "count"},
    {"cio.l5.doorbell.sim_self_us_per_op", "us"},
    {"cio.engine.poll.wall_us_per_op", "us"},
    {"cio.engine.send.wall_us_per_op", "us"},
    {"cio.engine.recv.wall_us_per_op", "us"},
    {"cio.l2.frames_per_op", "count"},
    {"cio.l2.tx_ring_full_per_op", "count"},
    {"cio.l2.tx.sim_self_us_per_op", "us"},
    {"cio.l2.counters.sim_self_us_per_op", "us"},
    {"net.frames_per_op", "count"},
    {"net.wire_bytes_per_op", "B"},
    {"net.tcp.poll.sim_us_per_op", "us"},
    {"tls.records_per_op", "count"},
    {"tls.bytes_protected_per_op", "B"},
    {"crypto.aead_wall_ns_per_byte", "ns/B"},
    {"crypto.aead_wall_share_pct", "%"},
    {"cost.host_exits_per_op", "count"},
    {"cost.notifies_per_op", "count"},
    {"cost.compartment_switches_per_op", "count"},
    {"cost.ring_polls_per_op", "count"},
    {"cost.copies_per_op", "count"},
    {"cost.bytes_copied_per_op", "B"},
    {"cost.aead_bytes_per_op", "B"},
    {"cost.pages_unshared_per_op", "count"},
    {"cio.session.resent_per_op", "count"},
    {"cio.session.dup_dropped_per_op", "count"},
    {"cio.engine.reconnects", "count"},
    {"cio.l2.ring_resets", "count"},
    {"cio.l2.watchdog_fires", "count"},
    {"cio.l5.cq_stale_dropped", "count"},
    {"serve.recovered", "count"},
    {"hostsim.fault_events", "count"},
    {"blockio.store.get.wall_us_per_op", "us"},
    {"blockio.store.put.wall_us_per_op", "us"},
    {"blockio.ring.ops_per_op", "count"},
    {"blockio.device.flushes_per_op", "count"},
    {"blockio.crypt.table_flushes_per_op", "count"},
    {"blockio.fs.journal_appends_per_op", "count"},
    {"setup.establish.sim_ms", "ms"},
    {"tee.attest.admitted", "count"},
    {"gen.lag_us.p99", "us"},
    {"gen.admit_wait_us.p99", "us"},
    {"gen.transit_us.p50", "us"},
    {"gen.transit_us.p99", "us"},
    {"trace.overhead_pct", "%"},
};

// Each returns false when `args.workload` is not one of its names.
// Untraced: fills the end-to-end values. Traced (args.trace): runs the
// untraced and the traced run of the same seed and fills the per-layer
// values. Checks, notes and modeled figures go to `report`.
bool RunEchoWorkload(const Args& args, Report& report, Values& values);
bool RunStoreWorkload(const Args& args, Report& report, Values& values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
