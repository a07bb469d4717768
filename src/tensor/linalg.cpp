// Linear-algebra entry points: validate contracts, size destinations
// through the pool, then dispatch to the active kernel backend (see
// tensor/backend/backend.hpp). All compute loops live in the backends;
// this file owns only the shape/aliasing checks that must run regardless
// of which backend executes.
#include "tensor/linalg.hpp"

#include "tensor/backend/backend.hpp"
#include "tensor/contracts.hpp"
#include "tensor/pool.hpp"

namespace zkg {

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b) {
  ZKG_REQUIRE_RANK(a, 2, "matmul");
  ZKG_REQUIRE_RANK(b, 2, "matmul");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  ZKG_REQUIRE(b.dim(0) == k)
      << " matmul inner dims: " << shape_to_string(a.shape()) << " x "
      << shape_to_string(b.shape());
  ZKG_REQUIRE_NOT_ALIASED(c, a, "matmul_into");
  ZKG_REQUIRE_NOT_ALIASED(c, b, "matmul_into");
  ensure_shape(c, {m, n});
  backend::active().matmul(c.data(), a.data(), b.data(), m, k, n);
}

void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b) {
  ZKG_REQUIRE_RANK(a, 2, "matmul_nt");
  ZKG_REQUIRE_RANK(b, 2, "matmul_nt");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(0);
  ZKG_REQUIRE(b.dim(1) == k)
      << " matmul_nt inner dims: " << shape_to_string(a.shape()) << " x "
      << shape_to_string(b.shape()) << "^T";
  ZKG_REQUIRE_NOT_ALIASED(c, a, "matmul_nt_into");
  ZKG_REQUIRE_NOT_ALIASED(c, b, "matmul_nt_into");
  ensure_shape(c, {m, n});
  backend::active().matmul_nt(c.data(), a.data(), b.data(), m, k, n);
}

void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b) {
  ZKG_REQUIRE_RANK(a, 2, "matmul_tn");
  ZKG_REQUIRE_RANK(b, 2, "matmul_tn");
  const std::int64_t k = a.dim(0);
  const std::int64_t m = a.dim(1);
  const std::int64_t n = b.dim(1);
  ZKG_REQUIRE(b.dim(0) == k)
      << " matmul_tn inner dims: " << shape_to_string(a.shape()) << "^T x "
      << shape_to_string(b.shape());
  ZKG_REQUIRE_NOT_ALIASED(c, a, "matmul_tn_into");
  ZKG_REQUIRE_NOT_ALIASED(c, b, "matmul_tn_into");
  ensure_shape(c, {m, n});
  backend::active().matmul_tn(c.data(), a.data(), b.data(), m, k, n);
}

void add_row_bias_(Tensor& a, const Tensor& bias) {
  ZKG_REQUIRE_RANK(a, 2, "add_row_bias_");
  ZKG_REQUIRE(bias.ndim() == 1 && bias.dim(0) == a.dim(1))
      << " bias shape " << shape_to_string(bias.shape()) << " vs "
      << shape_to_string(a.shape());
  backend::active().add_row_bias(a.data(), bias.data(), a.dim(0), a.dim(1));
}

void col_sum_into(Tensor& out, const Tensor& a) {
  ZKG_REQUIRE_RANK(a, 2, "col_sum");
  ZKG_REQUIRE_NOT_ALIASED(out, a, "col_sum_into");
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  ensure_shape(out, {n});
  backend::active().col_sum(out.data(), a.data(), m, n);
}

}  // namespace zkg
