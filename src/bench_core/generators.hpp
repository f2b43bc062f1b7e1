// Benchmark input generators (Section 3.1's data setups).
//
//   generate_increment  — v = [1, 2, ..., n]        (find/for_each/reduce/scan)
//   shuffled_permutation — v_i in [1, n], v_i != v_j (sort)
//   find targets        — uniform random positions   (find)
//
// Deterministic: every generator takes a seed, so benchmark runs and tests
// are reproducible. Vectors use the first-touch allocator by default — the
// paper's production configuration (Section 5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "numa/first_touch_allocator.hpp"
#include "pstlb/pstlb.hpp"

namespace pstlb::bench {

using ft_vector =
    std::vector<elem_t, numa::first_touch_allocator<elem_t, exec::policy>>;

/// v = [1, 2, ..., n] allocated with the custom parallel allocator and
/// initialized with the same policy (the pstl::generate_increment of
/// Listing 3).
ft_vector generate_increment(const exec::policy& policy, index_t n);

/// Deterministic xorshift-based uniform in [0, bound).
std::uint64_t bounded_rand(std::uint64_t& state, std::uint64_t bound);

/// Fisher-Yates shuffled permutation of [1, n] (plain allocator).
std::vector<elem_t> shuffled_permutation(index_t n, std::uint64_t seed);

/// In-place deterministic shuffle (re-randomize between sort iterations,
/// as Listing 3 does with std::shuffle).
void shuffle_values(elem_t* data, index_t n, std::uint64_t seed);

/// Uniform random target index for the find benchmark.
index_t find_target(index_t n, std::uint64_t seed);

}  // namespace pstlb::bench
