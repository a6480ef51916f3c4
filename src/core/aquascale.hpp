// AquaSCALE umbrella header: the public API of the library.
//
//   #include "core/aquascale.hpp"
//
// pulls in the hydraulic simulator (EPANET++), the built-in evaluation
// networks, IoT sensing, the ML profile model (Phase I), the multi-source
// inference pipeline (Phase II), the enumeration baseline, and the
// experiment harness. See README.md for a quickstart and DESIGN.md for the
// architecture map.
#pragma once

#include "core/enumeration.hpp"
#include "core/experiment.hpp"
#include "core/inference_engine.hpp"
#include "core/label_space.hpp"
#include "core/pipeline.hpp"
#include "core/placement_opt.hpp"
#include "core/profile.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "fusion/beliefs.hpp"
#include "fusion/human.hpp"
#include "fusion/weather.hpp"
#include "hydraulics/inp_io.hpp"
#include "hydraulics/network.hpp"
#include "hydraulics/simulation.hpp"
#include "hydraulics/solver.hpp"
#include "io/artifact.hpp"
#include "ml/metrics.hpp"
#include "ml/model_io.hpp"
#include "networks/builtin.hpp"
#include "networks/generator.hpp"
#include "sensing/placement.hpp"
#include "sensing/sensors.hpp"
