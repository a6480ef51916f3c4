#include "hydraulics/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aqua::hydraulics {

double PumpCurve::head_gain(double flow) const noexcept {
  if (flow <= 0.0) return shutoff_head;
  return shutoff_head - coefficient * std::pow(flow, exponent);
}

double PumpCurve::gradient(double flow) const noexcept {
  // Gradient of the pump *head loss* (-head_gain) w.r.t. flow; positive.
  constexpr double kMinFlow = 1e-6;
  const double q = std::max(flow, kMinFlow);
  return std::max(coefficient * exponent * std::pow(q, exponent - 1.0), 1e-8);
}

Network::Network(std::string name) : name_(std::move(name)) {}

NodeId Network::add_node(Node node) {
  AQUA_REQUIRE(!node.name.empty(), "node name must be non-empty");
  AQUA_REQUIRE(node_index_.find(node.name) == node_index_.end(),
               "duplicate node name: " + node.name);
  const NodeId id = nodes_.size();
  node_index_.emplace(node.name, id);
  nodes_.push_back(std::move(node));
  return id;
}

LinkId Network::add_link(Link link) {
  AQUA_REQUIRE(!link.name.empty(), "link name must be non-empty");
  AQUA_REQUIRE(link_index_.find(link.name) == link_index_.end(),
               "duplicate link name: " + link.name);
  AQUA_REQUIRE(link.from < nodes_.size() && link.to < nodes_.size(),
               "link endpoint out of range");
  AQUA_REQUIRE(link.from != link.to, "self-loop links are not allowed");
  const LinkId id = links_.size();
  link_index_.emplace(link.name, id);
  links_.push_back(std::move(link));
  return id;
}

NodeId Network::add_junction(const std::string& name, double elevation, double base_demand_lps,
                             int pattern, double x, double y) {
  AQUA_REQUIRE(base_demand_lps >= 0.0, "junction demand must be non-negative");
  AQUA_REQUIRE(pattern == -1 || static_cast<std::size_t>(pattern) < patterns_.size(),
               "unknown demand pattern");
  Node n;
  n.type = NodeType::kJunction;
  n.name = name;
  n.elevation = elevation;
  n.base_demand = lps(base_demand_lps);
  n.demand_pattern = pattern;
  n.x = x;
  n.y = y;
  return add_node(std::move(n));
}

NodeId Network::add_reservoir(const std::string& name, double head, double x, double y) {
  Node n;
  n.type = NodeType::kReservoir;
  n.name = name;
  n.elevation = head;
  n.x = x;
  n.y = y;
  return add_node(std::move(n));
}

NodeId Network::add_tank(const std::string& name, double elevation, double init_level,
                         double min_level, double max_level, double diameter, double x, double y) {
  AQUA_REQUIRE(diameter > 0.0, "tank diameter must be positive");
  AQUA_REQUIRE(min_level <= init_level && init_level <= max_level,
               "tank levels must satisfy min <= init <= max");
  Node n;
  n.type = NodeType::kTank;
  n.name = name;
  n.elevation = elevation;
  n.init_level = init_level;
  n.min_level = min_level;
  n.max_level = max_level;
  n.diameter = diameter;
  n.x = x;
  n.y = y;
  return add_node(std::move(n));
}

LinkId Network::add_pipe(const std::string& name, NodeId from, NodeId to, double length,
                         double diameter, double roughness, LinkStatus status) {
  AQUA_REQUIRE(length > 0.0, "pipe length must be positive");
  AQUA_REQUIRE(diameter > 0.0, "pipe diameter must be positive");
  AQUA_REQUIRE(roughness > 0.0, "pipe roughness must be positive");
  Link l;
  l.type = LinkType::kPipe;
  l.name = name;
  l.from = from;
  l.to = to;
  l.length = length;
  l.diameter = diameter;
  l.roughness = roughness;
  l.status = status;
  return add_link(std::move(l));
}

LinkId Network::add_pump(const std::string& name, NodeId from, NodeId to, const PumpCurve& curve) {
  AQUA_REQUIRE(curve.shutoff_head > 0.0, "pump shutoff head must be positive");
  AQUA_REQUIRE(curve.coefficient >= 0.0 && curve.exponent > 0.0, "pump curve must be decreasing");
  Link l;
  l.type = LinkType::kPump;
  l.name = name;
  l.from = from;
  l.to = to;
  l.pump = curve;
  l.length = 1.0;  // nominal for graph distance
  return add_link(std::move(l));
}

LinkId Network::add_valve(const std::string& name, NodeId from, NodeId to, double diameter,
                          double setting) {
  AQUA_REQUIRE(diameter > 0.0, "valve diameter must be positive");
  AQUA_REQUIRE(setting >= 0.0, "valve setting must be non-negative");
  Link l;
  l.type = LinkType::kValve;
  l.name = name;
  l.from = from;
  l.to = to;
  l.diameter = diameter;
  l.valve_setting = setting;
  l.length = 1.0;  // nominal for graph distance
  return add_link(std::move(l));
}

int Network::add_pattern(Pattern pattern) {
  AQUA_REQUIRE(!pattern.multipliers.empty(), "pattern must have at least one multiplier");
  for (double m : pattern.multipliers) {
    AQUA_REQUIRE(m >= 0.0, "pattern multipliers must be non-negative");
  }
  patterns_.push_back(std::move(pattern));
  return static_cast<int>(patterns_.size()) - 1;
}

std::size_t Network::count_nodes(NodeType type) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [type](const Node& n) { return n.type == type; }));
}

std::size_t Network::count_links(LinkType type) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(), [type](const Link& l) { return l.type == type; }));
}

const Node& Network::node(NodeId id) const {
  AQUA_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

Node& Network::node(NodeId id) {
  AQUA_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Link& Network::link(LinkId id) const {
  AQUA_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

Link& Network::link(LinkId id) {
  AQUA_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

NodeId Network::node_id(const std::string& name) const {
  const auto it = node_index_.find(name);
  if (it == node_index_.end()) throw NotFound("unknown node: " + name);
  return it->second;
}

LinkId Network::link_id(const std::string& name) const {
  const auto it = link_index_.find(name);
  if (it == link_index_.end()) throw NotFound("unknown link: " + name);
  return it->second;
}

const Pattern& Network::pattern(int index) const {
  AQUA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < patterns_.size(),
               "pattern index out of range");
  return patterns_[static_cast<std::size_t>(index)];
}

void Network::set_emitter(NodeId node_id, double coefficient, double exponent) {
  Node& n = node(node_id);
  AQUA_REQUIRE(n.type == NodeType::kJunction, "emitters can only be installed at junctions");
  AQUA_REQUIRE(coefficient >= 0.0, "emitter coefficient must be non-negative");
  AQUA_REQUIRE(exponent > 0.0, "emitter exponent must be positive");
  n.emitter_coefficient = coefficient;
  n.emitter_exponent = exponent;
}

void Network::clear_emitters() {
  for (Node& n : nodes_) {
    n.emitter_coefficient = 0.0;
    n.emitter_exponent = 0.5;
  }
}

graph::Graph Network::to_graph() const {
  graph::Graph g(nodes_.size());
  for (const Link& l : links_) g.add_edge(l.from, l.to, l.length);
  return g;
}

std::vector<NodeId> Network::junction_ids() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].type == NodeType::kJunction) out.push_back(id);
  }
  return out;
}

double Network::demand_at(NodeId node_id, std::size_t pattern_period) const {
  const Node& n = node(node_id);
  if (n.type != NodeType::kJunction) return 0.0;
  const double multiplier =
      n.demand_pattern >= 0 ? pattern(n.demand_pattern).value(pattern_period) : 1.0;
  return n.base_demand * multiplier;
}

void Network::validate() const {
  AQUA_REQUIRE(!nodes_.empty(), "network has no nodes");
  AQUA_REQUIRE(!links_.empty(), "network has no links");
  bool has_source = false;
  for (const Node& n : nodes_) has_source = has_source || n.has_fixed_head();
  AQUA_REQUIRE(has_source, "network needs at least one reservoir or tank");
  AQUA_REQUIRE(to_graph().is_connected(), "network must be connected");
}

}  // namespace aqua::hydraulics
