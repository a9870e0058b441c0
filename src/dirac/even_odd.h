#pragma once
/// \file even_odd.h
/// \brief Even-odd (red-black) Schur-complement preconditioning of the
/// Wilson-clover operator (§3.1).
///
/// With sites split by parity, M has the 2x2 block form
///   M = [ A_ee        -1/2 D_eo ]
///       [ -1/2 D_oe    A_oo     ]        A = 4 + m + A_clover,
/// and the Schur complement on the even checkerboard is
///   M_hat = A_ee - (1/4) D_eo A_oo^{-1} D_oe.
/// Solving M_hat x_e = b_e + (1/2) D_eo A_oo^{-1} b_o and back-substituting
/// x_o = A_oo^{-1} (b_o + (1/2) D_oe x_e) halves the system size and
/// improves the condition number — "almost always used" per the paper.
///
/// Fields passed through this operator keep the odd checkerboard zero.
///
/// Like WilsonCloverOperator, the half-hops can execute from a
/// reconstruct-12/-8 gauge field (ctor \p recon, LQCD_RECON override,
/// LQCD_RECON=tune policy sweep cached as `wilson_schur_recon`).

#include <memory>
#include <optional>
#include <vector>

#include "dirac/multi_rhs.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "dirac/wilson_kernel.h"
#include "fields/clover.h"
#include "fields/compressed_gauge.h"

namespace lqcd {

/// The Schur operator M_hat (optionally Dirichlet-cut for Schwarz blocks).
template <typename Real>
class WilsonCloverSchurOperator : public LinearOperator<WilsonField<Real>> {
 public:
  /// \param a clover field (may be null for plain Wilson).
  WilsonCloverSchurOperator(const GaugeField<Real>& u,
                            const CloverField<Real>* a, double mass,
                            const LinkCut* mask = nullptr,
                            Reconstruct recon = Reconstruct::None)
      : u_(&u), mass_(mass), mask_(mask),
        diag_(std::make_shared<CloverField<Real>>(u.geometry())),
        inv_diag_(std::make_shared<CloverField<Real>>(u.geometry())) {
    const Real d = static_cast<Real>(4.0 + mass);
    const LatticeGeometry& g = u.geometry();
    tmp_multi_.emplace_back(g);
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      CloverSite<Real> cs = a != nullptr ? a->at(s) : CloverSite<Real>{};
      cs = clover_add_diagonal(cs, d);
      diag_->at(s) = cs;
      inv_diag_->at(s) = clover_invert(cs);
    }
    std::unique_ptr<WilsonField<Real>> tin;
    std::unique_ptr<WilsonField<Real>> tout;
    recon_ = select_reconstruct(
        "wilson_schur", detail::dslash_aux<Real>(std::nullopt, mask != nullptr),
        g.half_volume(), recon, [&](Reconstruct r) {
          if (!tin) {
            tin = std::make_unique<WilsonField<Real>>(g);
            tout = std::make_unique<WilsonField<Real>>(g);
          }
          ensure_compressed(r);
          with_gauge(r, [&](const auto& ug) { apply_impl(ug, *tout, *tin); });
        });
    ensure_compressed(recon_);
    if (recon_ != Reconstruct::Twelve) c12_.reset();
    if (recon_ != Reconstruct::Eight) c8_.reset();
  }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    with_gauge(recon_, [&](const auto& ug) { apply_impl(ug, out, in); });
  }

  /// Batched M_hat: one site sweep per hop services every RHS from a
  /// single (reconstructed) gauge-link load.  Per-RHS arithmetic replicates
  /// apply() exactly, so outs[r] is bitwise identical to apply(ins[r]).
  void apply_multi(const std::vector<WilsonField<Real>*>& outs,
                   const std::vector<const WilsonField<Real>*>& ins) const {
    const std::size_t w = ins.size();
    for (std::size_t r = 0; r < w; ++r) this->count_application();
    while (tmp_multi_.size() < w) tmp_multi_.emplace_back(geometry());
    std::vector<WilsonField<Real>*> tmps(w);
    std::vector<const WilsonField<Real>*> ctmps(w);
    for (std::size_t r = 0; r < w; ++r) {
      tmp_multi_[r].set_zero();
      tmps[r] = &tmp_multi_[r];
      ctmps[r] = &tmp_multi_[r];
    }
    const LatticeGeometry& g = geometry();
    // Flat per-RHS site pointers for the clover sweeps below (same hoist as
    // the multi-RHS hop kernels: no per-site pointer chase per RHS).
    WilsonSpinor<Real>* tmp_p[kMaxMultiRhs];
    const WilsonSpinor<Real>* in_p[kMaxMultiRhs];
    WilsonSpinor<Real>* out_p[kMaxMultiRhs];
    with_gauge(recon_, [&](const auto& ug) {
      // tmp_o = D_oe in_e (all RHS per link load)
      wilson_hop_multi(tmps, ug, ins, Parity::Odd, mask_);
      // tmp_o <- A_oo^{-1} tmp_o; like the hops, the clover site block
      // (2x 6x6 Hermitian — heavier than a gauge link) is loaded once and
      // applied to every RHS.  Per-RHS arithmetic matches apply() exactly.
      for (std::size_t r = 0; r < w; ++r) outs[r]->set_zero();
      for (std::size_t base = 0; base < w; base += kMaxMultiRhs) {
        const std::size_t gw = std::min<std::size_t>(kMaxMultiRhs, w - base);
        for (std::size_t r = 0; r < gw; ++r) {
          tmp_p[r] = tmp_multi_[base + r].sites().data();
        }
        for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
          const CloverSite<Real>& cs = inv_diag_->at(s);
          for (std::size_t r = 0; r < gw; ++r) {
            WilsonSpinor<Real>& v = tmp_p[r][s];
            v = clover_apply(cs, v);
          }
        }
      }
      // out_e = D_eo tmp_o
      wilson_hop_multi(outs, ug, ctmps, Parity::Even, mask_);
      // out_e = A_ee in_e - 1/4 out_e (again one clover load per site)
      for (std::size_t base = 0; base < w; base += kMaxMultiRhs) {
        const std::size_t gw = std::min<std::size_t>(kMaxMultiRhs, w - base);
        for (std::size_t r = 0; r < gw; ++r) {
          in_p[r] = ins[base + r]->sites().data();
          out_p[r] = outs[base + r]->sites().data();
        }
        for (std::int64_t s = 0; s < g.half_volume(); ++s) {
          const CloverSite<Real>& cs = diag_->at(s);
          for (std::size_t r = 0; r < gw; ++r) {
            WilsonSpinor<Real> v = clover_apply(cs, in_p[r][s]);
            WilsonSpinor<Real> h = out_p[r][s];
            h *= Real(-0.25);
            v += h;
            out_p[r][s] = v;
          }
        }
      }
    });
  }

  const LatticeGeometry& geometry() const override { return u_->geometry(); }

  Reconstruct recon() const { return recon_; }

  /// b_hat_e = b_e + (1/2) D_eo A_oo^{-1} b_o (result's odd part zero).
  void prepare_source(WilsonField<Real>& b_hat,
                      const WilsonField<Real>& b) const {
    WilsonField<Real>& tmp = tmp_multi_.front();
    tmp.set_zero();
    for_parity(tmp, Parity::Odd, [&](std::int64_t s, WilsonSpinor<Real>& v) {
      v = clover_apply(inv_diag_->at(s), b.at(s));
    });
    b_hat.set_zero();
    with_gauge(recon_, [&](const auto& ug) {
      wilson_hop(b_hat, ug, tmp, Parity::Even, mask_);
    });
    const LatticeGeometry& g = geometry();
    for (std::int64_t s = 0; s < g.half_volume(); ++s) {
      WilsonSpinor<Real> v = b_hat.at(s);
      v *= Real(0.5);
      v += b.at(s);
      b_hat.at(s) = v;
    }
  }

  /// x_o = A_oo^{-1} (b_o + (1/2) D_oe x_e); fills the odd part of x.
  void reconstruct_solution(WilsonField<Real>& x,
                            const WilsonField<Real>& b) const {
    const LatticeGeometry& g = geometry();
    WilsonField<Real>& tmp = tmp_multi_.front();
    tmp.set_zero();
    with_gauge(recon_, [&](const auto& ug) {
      wilson_hop(tmp, ug, x, Parity::Odd, mask_);
    });
    for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
      WilsonSpinor<Real> v = tmp.at(s);
      v *= Real(0.5);
      v += b.at(s);
      x.at(s) = clover_apply(inv_diag_->at(s), v);
    }
  }

  /// Shares the (expensive) diagonal inverses with a lower-precision copy.
  std::shared_ptr<const CloverField<Real>> diagonal() const { return diag_; }
  std::shared_ptr<const CloverField<Real>> inverse_diagonal() const {
    return inv_diag_;
  }

 private:
  template <typename Gauge>
  void apply_impl(const Gauge& ug, WilsonField<Real>& out,
                  const WilsonField<Real>& in) const {
    const LatticeGeometry& g = geometry();
    WilsonField<Real>& tmp = tmp_multi_.front();
    // tmp_o = D_oe in_e
    tmp.set_zero();
    wilson_hop(tmp, ug, in, Parity::Odd, mask_);
    // tmp_o <- A_oo^{-1} tmp_o
    for_parity(tmp, Parity::Odd, [&](std::int64_t s, WilsonSpinor<Real>& v) {
      v = clover_apply(inv_diag_->at(s), v);
    });
    // out_e = D_eo tmp_o
    out.set_zero();
    wilson_hop(out, ug, tmp, Parity::Even, mask_);
    // out_e = A_ee in_e - 1/4 out_e
    for (std::int64_t s = 0; s < g.half_volume(); ++s) {
      WilsonSpinor<Real> v = clover_apply(diag_->at(s), in.at(s));
      WilsonSpinor<Real> h = out.at(s);
      h *= Real(-0.25);
      v += h;
      out.at(s) = v;
    }
  }

  void ensure_compressed(Reconstruct r) {
    if (r == Reconstruct::Twelve && !c12_) {
      c12_ = std::make_unique<CompressedGaugeField<Real>>(*u_,
                                                          Reconstruct::Twelve);
    }
    if (r == Reconstruct::Eight && !c8_) {
      c8_ = std::make_unique<CompressedGaugeField<Real>>(*u_,
                                                         Reconstruct::Eight);
    }
  }

  template <typename Fn>
  void with_gauge(Reconstruct r, Fn&& fn) const {
    switch (r) {
      case Reconstruct::Twelve: fn(*c12_); break;
      case Reconstruct::Eight: fn(*c8_); break;
      case Reconstruct::None:
      default: fn(*u_); break;
    }
  }

  template <typename Fn>
  void for_parity(WilsonField<Real>& f, Parity p, Fn&& fn) const {
    const LatticeGeometry& g = geometry();
    const std::int64_t begin = p == Parity::Even ? 0 : g.half_volume();
    const std::int64_t end =
        p == Parity::Even ? g.half_volume() : g.volume();
    for (std::int64_t s = begin; s < end; ++s) fn(s, f.at(s));
  }

  const GaugeField<Real>* u_;
  double mass_;
  const LinkCut* mask_;
  // Odd-parity scratch, one per RHS of the widest batch seen; apply(),
  // prepare_source() and reconstruct_solution() use entry 0 (sized in the
  // constructor).
  mutable std::vector<WilsonField<Real>> tmp_multi_;
  std::shared_ptr<CloverField<Real>> diag_;      // A + 4 + m
  std::shared_ptr<CloverField<Real>> inv_diag_;  // (A + 4 + m)^{-1}
  Reconstruct recon_ = Reconstruct::None;
  std::unique_ptr<CompressedGaugeField<Real>> c12_;
  std::unique_ptr<CompressedGaugeField<Real>> c8_;
};

}  // namespace lqcd
