#pragma once
/// \file formulas.h
/// \brief Computed work and traffic of the operators the benchmark times,
/// from the perfmodel stencil formulas (perfmodel/stencil.h).  Bytes are
/// computed from array sizes and ignore cache hits and misses: every
/// `*_gbs` figure derived from them is labelled computed.

#include "lattice/partition.h"
#include "perfmodel/stencil.h"

namespace perfbench {

/// One even-odd Schur apply M_hat = A_ee - (1/4) D_eo A_oo^-1 D_oe: two
/// parity hops over V/2 target sites each, plus the clover block (A_oo^-1
/// on the odd sites, A_ee on the even ones).  Together: V sites of the
/// full clover stencil.
inline double wilson_schur_flops(const lqcd::LatticeGeometry& g) {
  return static_cast<double>(g.volume()) *
         lqcd::dslash_flops_per_site(lqcd::StencilKind::WilsonClover);
}

inline double wilson_schur_bytes(const lqcd::LatticeGeometry& g,
                                 lqcd::Precision prec) {
  return static_cast<double>(g.volume()) *
         lqcd::dslash_bytes_per_site(lqcd::StencilKind::WilsonClover, prec,
                                     lqcd::Reconstruct::None);
}

/// One (M^dag M + sigma)_ee apply: two parity hops over V/2 sites each of
/// the fat + Naik stencil (the diagonal term is not counted, as in the
/// model's per-site convention).
inline double staggered_schur_flops(const lqcd::LatticeGeometry& g) {
  return static_cast<double>(g.volume()) *
         lqcd::dslash_flops_per_site(lqcd::StencilKind::ImprovedStaggered);
}

inline double staggered_schur_bytes(const lqcd::LatticeGeometry& g,
                                    lqcd::Precision prec) {
  return static_cast<double>(g.volume()) *
         lqcd::dslash_bytes_per_site(lqcd::StencilKind::ImprovedStaggered,
                                     prec, lqcd::Reconstruct::None);
}

/// Ghost bytes all ranks put on the wire per partitioned Schur apply.  Each
/// of the two hops exchanges only source-parity sites, half a face, so the
/// pair moves one full exchange per rank at the native wire format.
inline double wilson_schur_ghost_bytes(const lqcd::Partitioning& part,
                                       lqcd::Precision wire) {
  return part.num_ranks() *
         lqcd::compressed_total_face_bytes(
             part, lqcd::StencilKind::WilsonClover, lqcd::WireFormat(wire));
}

/// Point-to-point messages per partitioned Schur apply: each hop sends one
/// message per direction of every partitioned dimension from every rank.
inline double wilson_schur_messages(const lqcd::Partitioning& part) {
  int dims = 0;
  for (int mu = 0; mu < lqcd::kNDim; ++mu) dims += part.partitioned(mu);
  return 2.0 * 2.0 * dims * part.num_ranks();
}

/// caxpy_norm2 on a field of n sites: read x, read y, write y.
inline double caxpy_norm2_bytes(std::int64_t sites, std::size_t site_bytes) {
  return 3.0 * static_cast<double>(sites) * static_cast<double>(site_bytes);
}

}  // namespace perfbench
