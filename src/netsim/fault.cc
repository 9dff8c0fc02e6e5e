#include "netsim/fault.h"

namespace rddr::sim {

void FaultPlan::crash_at(Time t, const std::string& node, Host* host) {
  net_.simulator().schedule_at(t, [this, node, host] {
    net_.crash_node(node);
    if (host) host->fail();
  });
}

void FaultPlan::restart_at(Time t, const std::string& node, Host* host) {
  net_.simulator().schedule_at(t, [this, node, host] {
    net_.restart_node(node);
    if (host) host->restore();
  });
}

void FaultPlan::crash_for(Time t, Time downtime, const std::string& node,
                          Host* host) {
  crash_at(t, node, host);
  restart_at(t + downtime, node, host);
}

void FaultPlan::refuse_address_for(Time t, Time duration,
                                   const std::string& address) {
  net_.simulator().schedule_at(
      t, [this, address] { net_.refuse_address(address, true); });
  net_.simulator().schedule_at(
      t + duration, [this, address] { net_.refuse_address(address, false); });
}

void FaultPlan::latency_spike(Time t, Time duration, const std::string& node,
                              Time extra) {
  net_.simulator().schedule_at(
      t, [this, node, extra] { net_.set_node_extra_latency(node, extra); });
  net_.simulator().schedule_at(
      t + duration, [this, node] { net_.set_node_extra_latency(node, 0); });
}

void FaultPlan::stall_egress(Time t, Time duration, const std::string& node) {
  net_.simulator().schedule_at(t, [this, node, end = t + duration] {
    net_.stall_node_egress_until(node, end);
  });
}

void FaultPlan::partition_for(Time t, Time duration,
                              std::set<std::string> group) {
  net_.simulator().schedule_at(
      t, [this, group = std::move(group)] { net_.partition(group); });
  net_.simulator().schedule_at(t + duration,
                               [this] { net_.heal_partition(); });
}

}  // namespace rddr::sim
