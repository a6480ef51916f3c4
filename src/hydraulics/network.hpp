// Water distribution network model — the data half of "EPANET++", the
// paper's enhanced hydraulic simulator. A network consists of nodes
// (junctions with demands, fixed-head reservoirs, storage tanks) connected
// by links (pipes with Hazen-Williams head loss, pumps with power-law
// curves, throttle valves). Junctions can carry *emitters* — the paper's
// leak model Q = EC * p^beta (Eq. 1) — which discharge to atmosphere as a
// function of local pressure head.
//
// Units are SI throughout: lengths/heads in meters, diameters in meters,
// flows in cubic meters per second (helpers accept liters per second),
// time in seconds.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace aqua::hydraulics {

using NodeId = std::size_t;
using LinkId = std::size_t;

enum class NodeType { kJunction, kReservoir, kTank };
enum class LinkType { kPipe, kPump, kValve };
enum class LinkStatus { kOpen, kClosed };

/// Time-varying multiplier pattern (e.g. diurnal demand). Values repeat
/// cyclically; `value_at(t)` uses the pattern step configured on the
/// network (piecewise constant, as in EPANET).
struct Pattern {
  std::string name;
  std::vector<double> multipliers;  // must be non-empty, values >= 0

  double value(std::size_t period) const noexcept {
    return multipliers.empty() ? 1.0 : multipliers[period % multipliers.size()];
  }
};

/// Power-law pump head curve: head gain = h0 - r * q^w for q >= 0
/// (EPANET's one-point/three-point curve form). h0 is the shutoff head.
struct PumpCurve {
  double shutoff_head = 0.0;  // h0 [m]
  double coefficient = 0.0;   // r
  double exponent = 2.0;      // w (> 0)

  double head_gain(double flow) const noexcept;
  double gradient(double flow) const noexcept;  // d(head loss)/dq, > 0
};

struct Node {
  NodeType type = NodeType::kJunction;
  std::string name;
  double elevation = 0.0;  // [m]; for reservoirs this is the fixed head
  double x = 0.0, y = 0.0;  // planar coordinates [m] (used for tweets/DEM)

  // Junction-only fields.
  double base_demand = 0.0;        // [m^3/s]
  int demand_pattern = -1;         // index into Network patterns, -1 = constant
  double emitter_coefficient = 0.0;  // EC in Eq. 1; 0 = no leak
  double emitter_exponent = 0.5;     // beta in Eq. 1

  // Tank-only fields (level measured above `elevation`).
  double init_level = 0.0;  // [m]
  double min_level = 0.0;   // [m]
  double max_level = 0.0;   // [m]
  double diameter = 0.0;    // [m] (cylindrical tank)

  bool has_fixed_head() const noexcept { return type != NodeType::kJunction; }
};

struct Link {
  LinkType type = LinkType::kPipe;
  std::string name;
  NodeId from = 0;
  NodeId to = 0;
  LinkStatus status = LinkStatus::kOpen;

  // Pipe fields.
  double length = 0.0;     // [m]
  double diameter = 0.0;   // [m]
  double roughness = 100.0;  // Hazen-Williams C
  double minor_loss = 0.0;   // dimensionless K

  // Pump fields.
  PumpCurve pump;

  // Valve fields (modeled as a throttle valve: setting = loss coefficient;
  // larger settings throttle harder, status kClosed shuts the line).
  double valve_setting = 0.0;
};

/// The network container. Construction is by the add_* builders; all
/// lookups by name are O(1). Indices are stable once added.
class Network {
 public:
  explicit Network(std::string name = "network");

  const std::string& name() const noexcept { return name_; }

  // --- Builders -----------------------------------------------------------
  NodeId add_junction(const std::string& name, double elevation, double base_demand_lps = 0.0,
                      int pattern = -1, double x = 0.0, double y = 0.0);
  NodeId add_reservoir(const std::string& name, double head, double x = 0.0, double y = 0.0);
  NodeId add_tank(const std::string& name, double elevation, double init_level, double min_level,
                  double max_level, double diameter, double x = 0.0, double y = 0.0);
  LinkId add_pipe(const std::string& name, NodeId from, NodeId to, double length, double diameter,
                  double roughness, LinkStatus status = LinkStatus::kOpen);
  LinkId add_pump(const std::string& name, NodeId from, NodeId to, const PumpCurve& curve);
  LinkId add_valve(const std::string& name, NodeId from, NodeId to, double diameter,
                   double setting = 0.0);
  /// Registers a demand pattern; returns its index.
  int add_pattern(Pattern pattern);

  // --- Access -------------------------------------------------------------
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_links() const noexcept { return links_.size(); }
  std::size_t count_nodes(NodeType type) const noexcept;
  std::size_t count_links(LinkType type) const noexcept;

  const Node& node(NodeId id) const;
  Node& node(NodeId id);
  const Link& link(LinkId id) const;
  Link& link(LinkId id);
  std::span<const Node> nodes() const noexcept { return nodes_; }
  std::span<const Link> links() const noexcept { return links_; }

  NodeId node_id(const std::string& name) const;  // throws NotFound
  LinkId link_id(const std::string& name) const;  // throws NotFound

  const Pattern& pattern(int index) const;
  std::size_t num_patterns() const noexcept { return patterns_.size(); }

  // --- Leak modeling (the "++" in EPANET++) --------------------------------
  /// Installs/updates an emitter at a junction (EC in Eq. 1, in
  /// (m^3/s) / m^beta). EC = 0 removes the leak.
  void set_emitter(NodeId node, double coefficient, double exponent = 0.5);
  /// Removes all emitters (resets the network to a healthy state).
  void clear_emitters();

  // --- Topology -----------------------------------------------------------
  /// Undirected graph over nodes; edge weight = pipe length (pumps/valves
  /// get a nominal 1 m so distances remain well-defined).
  graph::Graph to_graph() const;

  /// Ids of junction nodes in index order (candidate leak locations —
  /// "the leak event is assumed to occur at node", Sec. III-B).
  std::vector<NodeId> junction_ids() const;

  /// Demand at a node for the given pattern period [m^3/s].
  double demand_at(NodeId node, std::size_t pattern_period) const;

  /// Basic validation: connectivity, at least one fixed-head source,
  /// positive pipe attributes. Throws InvalidArgument on violation.
  void validate() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<Pattern> patterns_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::unordered_map<std::string, LinkId> link_index_;

  NodeId add_node(Node node);
  LinkId add_link(Link link);
};

/// Converts liters/second to cubic meters/second.
constexpr double lps(double liters_per_second) noexcept { return liters_per_second / 1000.0; }

}  // namespace aqua::hydraulics
