#include "bench_core/generators.hpp"

namespace pstlb::bench {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

ft_vector generate_increment(const exec::policy& policy, index_t n) {
  ft_vector v{numa::first_touch_allocator<elem_t, exec::policy>{policy}};
  v.resize(static_cast<std::size_t>(n));
  pstlb::for_each(policy, v.begin(), v.end(), [&](elem_t& x) {
    x = static_cast<elem_t>(&x - v.data() + 1);
  });
  return v;
}

std::uint64_t bounded_rand(std::uint64_t& state, std::uint64_t bound) {
  if (bound == 0) { return 0; }
  // Modulo mapping; the bias is < bound / 2^64, far below anything the
  // benchmarks or tests could observe.
  return splitmix64(state) % bound;
}

std::vector<elem_t> shuffled_permutation(index_t n, std::uint64_t seed) {
  std::vector<elem_t> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<elem_t>(i + 1);
  }
  shuffle_values(v.data(), n, seed);
  return v;
}

void shuffle_values(elem_t* data, index_t n, std::uint64_t seed) {
  std::uint64_t state = seed * 0x2545F4914F6CDD1Dull + 1;
  for (index_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<index_t>(
        bounded_rand(state, static_cast<std::uint64_t>(i) + 1));
    std::swap(data[i], data[j]);
  }
}

index_t find_target(index_t n, std::uint64_t seed) {
  std::uint64_t state = seed ^ 0xD1B54A32D192ED03ull;
  return n == 0 ? 0
               : static_cast<index_t>(bounded_rand(state, static_cast<std::uint64_t>(n)));
}

}  // namespace pstlb::bench
