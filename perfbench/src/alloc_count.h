#pragma once

#include <cstdint>

namespace grunt::perfbench {

/// Calls of the global operator new (every form that reaches malloc) made by
/// the calling thread since it started. alloc_count.cpp replaces the global
/// allocator of the benchmark binary only, so the count is exact and repeats
/// run to run for deterministic work.
std::uint64_t ThreadAllocations();

}  // namespace grunt::perfbench
