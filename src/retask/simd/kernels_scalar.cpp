// Scalar kernel backend — the reference implementation every vector backend
// must match bit for bit.
#include <cstddef>
#include <cstdint>

#include "retask/simd/kernels.hpp"

namespace retask::simd {

namespace {

#include "retask/simd/kernels_scalar_impl.inl"

}  // namespace

const KernelTable* scalar_table() noexcept {
  static const KernelTable table{
      &scalar_relax_desc_f64,
      &scalar_relax_desc_i64,
  };
  return &table;
}

}  // namespace retask::simd
