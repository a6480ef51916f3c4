// Slow suite: the GGA on a ~10k-node city, checked against the network
// equations and for prototype-clone bit-identity. Labelled "slow" in
// CMake; excluded from the quick `ctest -L unit` loop.
#include <gtest/gtest.h>

#include "gga_oracle.hpp"
#include "hydraulics/network.hpp"
#include "hydraulics/solver.hpp"
#include "networks/generator.hpp"

namespace aqua::networks {
namespace {

using hydraulics::GgaSolver;
using hydraulics::Network;
using hydraulics::NodeId;

TEST(CityScale, TenThousandNodeCitySatisfiesNetworkEquations) {
  Network net;
  make_city(net, city_spec_for_nodes(10000, 7));
  ASSERT_GE(net.num_nodes(), 9000u);
  hydraulics::oracle::expect_satisfies_network_equations(net);
}

TEST(CityScale, PrototypeCloneSharesAnalysisAtScale) {
  Network net;
  make_city(net, city_spec_for_nodes(10000, 7));

  const GgaSolver prototype(net);
  const auto from_prototype = prototype.solve_snapshot();

  Network copy = net;
  const GgaSolver cloned(copy, prototype);
  const auto from_clone = cloned.solve_snapshot();

  ASSERT_TRUE(from_prototype.converged);
  ASSERT_TRUE(from_clone.converged);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    EXPECT_EQ(from_prototype.head[v], from_clone.head[v]);
  }
}

}  // namespace
}  // namespace aqua::networks
