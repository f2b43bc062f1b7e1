// The page-placement models of the paper's Fig. 1.
//
// The default allocator first-touches every page from the allocating thread
// (all pages resident on one NUMA node); the custom parallel allocator
// (first_touch_allocator.hpp) first-touches each page from the thread that
// will own its chunk (pages spread across nodes). The simulator (src/sim)
// models each placement analytically; natively the allocator is the
// placement, and nothing records it.
#pragma once

namespace pstlb::numa {

enum class placement {
  sequential_touch,   // default allocator behaviour: all pages on one node
  parallel_touch,     // pSTL-Bench custom allocator: pages spread by chunk owner
  node_affine_touch,  // sim only: scatter-buffer pages on the bucket-owning node
};

}  // namespace pstlb::numa
