// Steady-state hydraulic solver: the Todini-Pilati Global Gradient
// Algorithm (GGA), the same method EPANET 2 uses. Each call solves one
// demand-driven snapshot: given junction demands and fixed heads at
// reservoirs/tanks, it computes nodal heads and link flows satisfying
// continuity and the head-loss relations, including pressure-dependent
// emitter (leak) outflows from Eq. 1 of the paper.
//
// Each Newton iteration solves the SPD node system with one sparse LDL^T
// factorization (linalg/cholesky.hpp), EPANET 2's single direct solver.
// Everything that depends only on the network's structure and geometry is
// computed once per solver instance: the node sparsity pattern, the
// ordering and symbolic factorization, and each link's head-loss
// coefficients. A Newton iteration only refills values, so repeated solves
// over the same network (extended-period simulation, scenario batches,
// enumeration trials) are cheap.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "hydraulics/headloss.hpp"
#include "hydraulics/network.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/sparse.hpp"

namespace aqua::hydraulics {

struct SolverOptions {
  std::size_t max_iterations = 600;
  /// Convergence: sum of |flow change| over sum of |flow| (EPANET ACCURACY).
  double accuracy = 1e-4;
  /// Throw SolverError on non-convergence instead of returning best effort.
  bool throw_on_divergence = true;
};

/// One hydraulic snapshot.
struct HydraulicState {
  std::vector<double> head;             // per node [m]
  std::vector<double> pressure;         // head - elevation [m] (0 at reservoirs)
  std::vector<double> flow;             // per link, signed from->to [m^3/s]
  std::vector<double> emitter_outflow;  // per node [m^3/s]
  std::size_t iterations = 0;
  bool converged = false;

  double total_emitter_outflow() const noexcept;
};

/// Reusable GGA solver bound to one network. What is fixed at
/// construction and what is read per solve:
///  - fixed: the structure (nodes, links, endpoints, which nodes have a
///    fixed head) and the head-loss coefficients, computed from each
///    link's geometry (length, diameter, roughness, minor loss, valve
///    setting) at construction. The loss model does not see geometry
///    edited later; build a new solver, or clone one onto the edited
///    network, instead.
///  - per solve: link status (EpsStepper toggles it between solves),
///    emitter coefficients and exponents, pump curves, and the demands and
///    fixed heads passed in.
///
/// The solver owns a workspace (matrix values, factor, rhs/iterate
/// buffers) built once in the constructor and reused by every solve(), so
/// steady-state solves allocate only the returned HydraulicState. The
/// flip side: solve() mutates that workspace, so a single GgaSolver
/// instance must not be used from multiple threads concurrently — give
/// each thread its own instance, preferably cloned from a prototype.
/// Measured cost on a 4-core Xeon (RelWithDebInfo): a fresh solver takes
/// ~90 us on EPA-NET (96 nodes), ~350 us on WSSC-SUBNET (299) and ~20 ms
/// on a 10k-node city, most of it the assembly and symbolic analysis that
/// a prototype clone skips; a clone takes ~10 us, ~30 us and ~1.8 ms,
/// against ~40 us, ~190 us and ~9 ms for one snapshot solve.
class GgaSolver {
 public:
  explicit GgaSolver(const Network& network, SolverOptions options = {});

  /// Binds a solver to `network` by cloning `prototype`'s options,
  /// assembly and cached symbolic factorization instead of recomputing
  /// the min-degree ordering and analysis. `network` must be structurally
  /// identical to prototype.network() (same node/link counts, fixed-head
  /// pattern and link endpoints — checked). Its geometry may differ: the
  /// head-loss coefficients are computed from `network`, never copied from
  /// the prototype. Status, emitters and demands are read per solve as
  /// usual. The clone only reads `prototype`, so many threads may clone
  /// one prototype at once as long as nobody solves on it meanwhile. This
  /// is what lets a per-thread solver pool share one symbolic
  /// factorization per network.
  GgaSolver(const Network& network, const GgaSolver& prototype);

  /// Solves a snapshot. `demands` is per-node (junction entries used)
  /// [m^3/s]; `fixed_heads` is per-node and consulted only for
  /// reservoir/tank nodes [m]. Every consulted entry must be finite
  /// (InvalidArgument otherwise); unconsulted entries are ignored.
  /// `warm_start` (optional) seeds heads and flows from a previous
  /// solution. Every returned state, converged or not, has per-node
  /// `head`, `pressure` and `emitter_outflow` and per-link `flow`.
  HydraulicState solve(const std::vector<double>& demands, const std::vector<double>& fixed_heads,
                       const HydraulicState* warm_start = nullptr) const;

  /// Convenience: demands from base demands at pattern period 0 and fixed
  /// heads from node data (tank head = elevation + init level).
  HydraulicState solve_snapshot() const;

  const Network& network() const noexcept { return network_; }
  const SolverOptions& options() const noexcept { return options_; }

  /// First-order probe around a converged state: refills the node Jacobian
  /// at `state` (link linearization + emitter gradients), refactors once,
  /// and computes the head response to a unit outflow (+1 m^3/s extra
  /// demand — the leak direction) at each probe node with one blocked
  /// multi-RHS solve. `head_response` is resized to probes.size() x
  /// num_nodes row-major (zero at fixed-head nodes); `flow_response`
  /// (optional, pass nullptr to skip) to probes.size() x num_links via the
  /// link linearization dq = p * (dh_from - dh_to). Every probe must be a
  /// junction. Mutates the solver workspace like solve() does (same
  /// thread-safety caveat).
  void probe_outflow_response(const HydraulicState& state, std::span<const NodeId> probes,
                              std::vector<double>& head_response,
                              std::vector<double>* flow_response = nullptr) const;

 private:
  struct Assembly {
    std::vector<std::size_t> row_of_node;  // kFixed for fixed-head nodes
    std::vector<NodeId> node_of_row;
    linalg::CsrMatrix pattern;              // SPD pattern with zero values
    // Per link: value-array slots for the four stamp positions
    // (from,from), (to,to), (from,to), (to,from); kNoSlot where the
    // endpoint is fixed-head.
    std::vector<std::array<std::size_t, 4>> link_slots;
    std::vector<std::size_t> diag_slot;  // per row
  };

  /// Per-solve scratch, sized once at construction and reused across all
  /// solve() calls of an EPS run or scenario batch.
  struct Workspace {
    linalg::CsrMatrix matrix;  // assembly pattern; values refilled per iteration
    std::vector<double> rhs;
    std::vector<double> solution;
    std::vector<double> y, p;  // per-link GGA intermediates
    // Factor with its cached ordering, pattern and row schedules; copied,
    // not recomputed, by the prototype constructor.
    linalg::SparseLdlt ldlt;
  };

  static constexpr std::size_t kFixed = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  Assembly build_assembly() const;
  /// Factors the workspace matrix and solves it against the workspace rhs
  /// into the workspace solution. Returns false (with the factorization's
  /// reason) instead of throwing so the Newton loop can surface divergence
  /// per SolverOptions::throw_on_divergence.
  bool solve_linear_system(std::string* why) const;

  const Network& network_;
  SolverOptions options_;
  Assembly assembly_;
  // Per link, from network_'s geometry at construction (never from the
  // prototype's network); solve() and the probe stamp with these.
  std::vector<LossCoefficients> loss_coefficients_;
  mutable Workspace workspace_;
};

}  // namespace aqua::hydraulics
