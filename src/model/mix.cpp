#include "model/mix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace contend::model {

namespace {
void validate(const CompetingApp& app) {
  if (app.commFraction < 0.0 || app.commFraction > 1.0) {
    throw std::invalid_argument("CompetingApp: commFraction outside [0, 1]");
  }
  if (app.messageWords < 0) {
    throw std::invalid_argument("CompetingApp: negative message size");
  }
  if (app.commFraction > 0.0 && app.messageWords <= 0) {
    throw std::invalid_argument(
        "CompetingApp: communicating applications need a message size");
  }
  if (app.ioFraction < 0.0 || app.ioFraction > 1.0) {
    throw std::invalid_argument("CompetingApp: ioFraction outside [0, 1]");
  }
  if (app.commFraction + app.ioFraction > 1.0) {
    throw std::invalid_argument(
        "CompetingApp: commFraction + ioFraction exceeds 1");
  }
  if (app.ioOps < 0) {
    throw std::invalid_argument("CompetingApp: negative I/O op count");
  }
  if (app.ioFraction > 0.0 && app.ioOps <= 0) {
    throw std::invalid_argument(
        "CompetingApp: I/O-bound applications need an op count");
  }
}
}  // namespace

WorkloadMix::WorkloadMix(std::span<const CompetingApp> apps) {
  for (const CompetingApp& app : apps) add(app);
}

void WorkloadMix::convolve(std::vector<double>& coeff, double q) {
  // coeff(x) *= (1 - q) + q x : one O(p) pass, highest degree first.
  coeff.push_back(0.0);
  const double keep = 1.0 - q;
  for (std::size_t i = coeff.size() - 1; i > 0; --i) {
    coeff[i] = coeff[i] * keep + coeff[i - 1] * q;
  }
  coeff[0] = coeff[0] * keep + 0.0;  // the + 0.0 turns -0.0 into +0.0
}

namespace {

// Pivot below which a division by (1 - q) is refused as ill-conditioned.
constexpr double kMinPivot = 0.25;

// Two doubles per operation. Each lane is one IEEE multiply or add, the
// same operation convolve() performs on that coefficient, so the results
// are identical bit for bit as long as nothing is contracted into an FMA
// (GCC does not contract in ISO C++ mode, and baseline x86-64 has no FMA
// instruction). mix_bits_test holds the kernel to this.
using Lanes = double __attribute__((vector_size(16)));

Lanes loadLanes(const double* from) {
  Lanes lanes;
  std::memcpy(&lanes, from, sizeof lanes);
  return lanes;
}

void storeLanes(double* to, Lanes lanes) {
  std::memcpy(to, &lanes, sizeof lanes);
}

// Builds the product of (1 - q) + q x over every app's q into `poly`,
// sized p + 1. Works out of place between buffers `a` and `b` (any
// contents), so no step reads what it writes, and each runs two
// coefficients at a time: out[i, i+1] = c[i, i+1] * (1 - q) +
// c[i-1, i] * q over even i, the shifted pair taken from registers. A
// step to degree d reads c up to slot d + 1; slots past the source's
// degree must hold +0.0, the value convolve() sees there.
// Every load is of a whole even-aligned pair that one 16-byte store
// wrote, so it forwards from that store without a stall; the buffers need
// room for slot p + 2.
//
// A factor with q == 0 is skipped: it maps c[i] to c[i] * 1 + c[i-1] * 0,
// which is c[i] exactly unless c[i] is -0.0. A -0.0 needs both products
// of one step to round to -0.0, so needs negative coefficients, which
// only a q below zero (1 - f - g rounding under 0) can make.
template <class QOf>
void buildPoly(std::vector<double>& poly, double* a, double* b,
               std::span<const CompetingApp> apps, QOf qOf) {
  double* from = a;
  double* to = b;
  // Pair 0 of `from` rides in a register from step to step, so no step
  // loads what the previous one has just stored.
  Lanes head = {1.0, 0.0};
  storeLanes(from, head);
  std::size_t degree = 0;
  for (const CompetingApp& app : apps) {
    const double q = qOf(app);
    if (q == 0.0) continue;
    const double keep = 1.0 - q;
    const Lanes keepLanes = {keep, keep};
    const Lanes qLanes = {q, q};
    ++degree;
    // When `degree` is even this clears slots degree and degree + 1 of
    // the source; when odd, the last step already wrote slot `degree` as
    // +0.0 and the store only clears the unread pair after it.
    storeLanes(from + ((degree + 1) & ~std::size_t{1}), Lanes{0.0, 0.0});
    Lanes prev = head;
    head = prev * keepLanes + Lanes{0.0, prev[0]} * qLanes;
    head[0] = prev[0] * keep + 0.0;  // slot 0 exactly as convolve() has it
    storeLanes(to, head);
    for (std::size_t i = 2; i <= degree; i += 2) {
      const Lanes cur = loadLanes(from + i);
      storeLanes(to + i, cur * keepLanes + Lanes{prev[1], cur[0]} * qLanes);
      prev = cur;
    }
    std::swap(from, to);
  }
  poly.resize(apps.size() + 1);
  for (std::size_t i = 0; i < poly.size(); ++i) {
    poly[i] = i <= degree ? from[i] : 0.0;
  }
}

// Divides poly_k by (1 - q_k) + q_k x in place for all three polynomials
// in one pass, so the three dependency chains (multiply, subtract, divide)
// overlap. Each quotient coefficient must land in [-1e-9, 1 + 1e-9] and
// the dropped top coefficient must match the remainder within 1e-9;
// quotients are clamped into [0, 1]. On false the coefficients are
// partly overwritten and the caller rebuilds.
bool deconvolve(std::array<std::vector<double>*, 3> polys,
                std::array<double, 3> qs) {
  std::array<double, 3> pivots{};
  for (std::size_t k = 0; k < 3; ++k) {
    pivots[k] = 1.0 - qs[k];
    if (!(pivots[k] >= kMinPivot)) return false;
  }
  std::array<double*, 3> c{polys[0]->data(), polys[1]->data(),
                           polys[2]->data()};
  const std::size_t n = polys[0]->size() - 1;
  std::array<double, 3> carry{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      const double out = (c[k][i] - carry[k] * qs[k]) / pivots[k];
      if (!(out >= -1e-9 && out <= 1.0 + 1e-9)) return false;
      c[k][i] = std::clamp(out, 0.0, 1.0);
      carry[k] = out;
    }
  }
  for (std::size_t k = 0; k < 3; ++k) {
    if (std::abs(c[k][n] - carry[k] * qs[k]) > 1e-9) return false;
  }
  for (std::vector<double>* poly : polys) poly->pop_back();
  return true;
}

}  // namespace

void WorkloadMix::add(const CompetingApp& app) {
  validate(app);
  apps_.push_back(app);
  convolve(commPoly_, app.commFraction);
  // Subtracting a 0.0 ioFraction and convolving ioPoly_ by 0.0 are both
  // IEEE-exact no-ops, so mixes without I/O keep their pre-extension bits.
  convolve(compPoly_, 1.0 - app.commFraction - app.ioFraction);
  convolve(ioPoly_, app.ioFraction);
}

void WorkloadMix::removeAt(std::size_t index) {
  if (index >= apps_.size()) {
    throw std::out_of_range("WorkloadMix::removeAt: bad index");
  }
  const double f = apps_[index].commFraction;
  const double g = apps_[index].ioFraction;
  apps_.erase(apps_.begin() + static_cast<std::ptrdiff_t>(index));
  if (!deconvolve({&commPoly_, &compPoly_, &ioPoly_}, {f, 1.0 - f - g, g})) {
    rebuild();
  }
}

void WorkloadMix::rebuild() {
  // Two buffers with room for slot p + 2, each a whole number of pairs;
  // shallow mixes stay off the heap.
  const std::size_t size = (apps_.size() + 4) & ~std::size_t{1};
  alignas(16) std::array<double, 32> onStack{};
  std::vector<double> onHeap;
  double* a = onStack.data();
  if (2 * size > onStack.size()) {
    onHeap.resize(2 * size);
    a = onHeap.data();
  }
  double* b = a + size;
  buildPoly(commPoly_, a, b, apps_,
            [](const CompetingApp& app) { return app.commFraction; });
  buildPoly(compPoly_, a, b, apps_, [](const CompetingApp& app) {
    return 1.0 - app.commFraction - app.ioFraction;
  });
  buildPoly(ioPoly_, a, b, apps_,
            [](const CompetingApp& app) { return app.ioFraction; });
}

void WorkloadMix::restore(std::vector<CompetingApp> apps,
                          std::vector<double> commPoly,
                          std::vector<double> compPoly,
                          std::vector<double> ioPoly) {
  if (commPoly.size() != apps.size() + 1 ||
      compPoly.size() != apps.size() + 1 ||
      ioPoly.size() != apps.size() + 1) {
    throw std::invalid_argument(
        "WorkloadMix::restore: coefficient vectors must be sized p + 1");
  }
  for (const CompetingApp& app : apps) validate(app);
  for (const std::vector<double>* poly : {&commPoly, &compPoly, &ioPoly}) {
    for (const double c : *poly) {
      if (!std::isfinite(c)) {
        throw std::invalid_argument(
            "WorkloadMix::restore: non-finite coefficient");
      }
    }
  }
  apps_ = std::move(apps);
  commPoly_ = std::move(commPoly);
  compPoly_ = std::move(compPoly);
  ioPoly_ = std::move(ioPoly);
}

double WorkloadMix::pcomm(int i) const {
  if (i < 0 || i > p()) throw std::out_of_range("pcomm: i outside [0, p]");
  return commPoly_[static_cast<std::size_t>(i)];
}

double WorkloadMix::pcomp(int i) const {
  if (i < 0 || i > p()) throw std::out_of_range("pcomp: i outside [0, p]");
  return compPoly_[static_cast<std::size_t>(i)];
}

double WorkloadMix::pio(int i) const {
  if (i < 0 || i > p()) throw std::out_of_range("pio: i outside [0, p]");
  return ioPoly_[static_cast<std::size_t>(i)];
}

Words WorkloadMix::maxMessageWords() const {
  Words best = 0;
  for (const CompetingApp& app : apps_) {
    if (app.commFraction > 0.0) best = std::max(best, app.messageWords);
  }
  return best;
}

}  // namespace contend::model
