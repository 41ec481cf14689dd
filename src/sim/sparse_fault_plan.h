// Former name of the lazily replayed fault plan (src/sim/fault_plan.h),
// kept while benchmark/ still includes this header.
#pragma once

#include "src/sim/fault_plan.h"

namespace hfl::sim {

using SparseFaultPlan = FaultPlan;

}  // namespace hfl::sim
