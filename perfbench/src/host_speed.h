#pragma once

// How fast the host runs right now, from a fixed reference computation.
//
// The benchmark shares its cores with other tenants, and their load changes
// how fast the same code runs by up to 1.6x for minutes at a time, while the
// process keeps its CPU (cputime and wall time agree, steal time stays 0).
// So each pass samples a fixed reference computation between its slices,
// and the end-to-end times are reported at the reference's nominal speed:
// a measured host time times kNominalReferenceMs over the median reference
// sample of the same pass. The reference shares no code with the simulator,
// so a change to the program cannot move it; only the host can.

#include <vector>

namespace grunt::perfbench {

/// The speed normalized times are given at: a round figure within the
/// 3-5 ms the reference took on the 4-vCPU host the benchmark was defined on.
inline constexpr double kNominalReferenceMs = 5.0;

/// Runs the reference once on the calling thread; returns its host ms. It
/// allocates nothing through operator new, so allocation counts stay exact.
double ReferenceMs();

/// Host seconds the calling thread has spent in ReferenceMs so far.
double ReferenceSecondsOnThread();

/// kNominalReferenceMs over the median of `samples_ms`: multiplying a host
/// time by it gives the time at nominal speed. 1 without samples.
double HostFactor(std::vector<double> samples_ms);

}  // namespace grunt::perfbench
