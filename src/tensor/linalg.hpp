// Dense linear algebra kernels (2-D). These back the Dense layer;
// convolution runs on its own backend entries (KernelBackend::conv_*,
// driven by nn::Conv2d). Every kernel
// is cache-blocked and runs on zkg::parallel_for (common/parallel.hpp),
// so parallelism is identical whichever backend the build selected.
//
// Each kernel writes into a caller-provided destination (resized via
// ensure_shape, so repeated calls with stable shapes never allocate). The
// destination must not alias an input.
#pragma once

#include "tensor/tensor.hpp"

namespace zkg {

/// C = A[m,k] * B[k,n].
void matmul_into(Tensor& c, const Tensor& a, const Tensor& b);

/// C = A[m,k] * B[n,k]^T  (i.e. result [m,n]); avoids materialising B^T.
void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b);

/// C = A[k,m]^T * B[k,n]  (i.e. result [m,n]); avoids materialising A^T.
void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b);

/// Adds `bias`[n] to every row of `a`[m,n] in place.
void add_row_bias_(Tensor& a, const Tensor& bias);

/// Sums `a`[m,n] over rows -> [n] (gradient of add_row_bias_).
void col_sum_into(Tensor& out, const Tensor& a);

}  // namespace zkg
