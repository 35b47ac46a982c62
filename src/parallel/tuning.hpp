// Runtime-tunable serial cutoffs for the parallel layer.
//
// The primitives (reduce/scan/pack) fall back to serial code below
// serial_cutoff() elements, and parallel_sort below sort_serial_cutoff().
// Both default to values tuned for release builds but can be lowered via
// one environment variable so tests and sanitizer runs exercise the
// parallel paths on small inputs:
//
//   CPKC_GRAIN  serial cutoff for the primitives (default 2048); also the
//               scan work below which a PLDS move step runs its loops
//               inline instead of forking (plds/plds.hpp). The sort
//               cutoff is 8 x this.
//
// The environment is read once on first use; tests can override within a
// process via the setters (0 restores the env/default value).
#pragma once

#include <cstddef>

namespace cpkcore {

/// Inputs smaller than this run serially in the data-parallel primitives.
std::size_t serial_cutoff();

/// Inputs smaller than this use std::sort in parallel_sort; also the leaf
/// size of the nested per-bucket sorts.
std::size_t sort_serial_cutoff();

/// Overrides serial_cutoff() for this process (0 = back to env/default).
void set_serial_cutoff(std::size_t cutoff);

/// Overrides sort_serial_cutoff() for this process (0 = back to
/// 8 x serial_cutoff()).
void set_sort_serial_cutoff(std::size_t cutoff);

}  // namespace cpkcore
