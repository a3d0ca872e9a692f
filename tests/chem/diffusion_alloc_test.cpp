/// \file diffusion_alloc_test.cpp
/// Asserts the simulation hot path is allocation-free in steady state: a
/// counting global allocator observes zero heap allocations across repeated
/// DiffusionField / probe / redox-system steps after a warm-up step.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "bio/library.hpp"
#include "bio/oxidase_batch.hpp"
#include "bio/oxidase_probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/diffusion.hpp"
#include "chem/grid.hpp"
#include "chem/redox.hpp"
#include "chem/redox_system.hpp"
#include "fault/sensor_state.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Counting global allocator: every successful allocation bumps the counter,
// including the aligned and nothrow forms so over-aligned hot-path buffers
// cannot slip past the zero-allocation assertion.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// Every deallocation form releases through this one out-of-line function.
// Were `free` inlined into a caller whose pointer came from operator new,
// g++ 12 would flag the pair (-Wmismatched-new-delete) without seeing that
// the replaced operator new allocates with malloc/aligned_alloc.
namespace {
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace idp {
namespace {

std::size_t allocations_during(const std::function<void()>& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(DiffusionAlloc, StepIsAllocationFreeInSteadyState) {
  chem::Grid1D grid = chem::Grid1D::membrane_bulk(50e-6, 26, 1.18, 60e-6);
  chem::DiffusionField field(grid, 1.0e-9, 1.0);
  field.set_bulk_concentration(1.0);
  field.set_electrode_rate(1.0e-5);
  field.step(5.0e-3);  // warm-up: any lazy buffers fill here

  const std::size_t n_alloc = allocations_during([&] {
    for (int k = 0; k < 200; ++k) field.step(5.0e-3);
  });
  EXPECT_EQ(n_alloc, 0u);
}

TEST(DiffusionAlloc, SourceTermStepIsAllocationFree) {
  chem::Grid1D grid = chem::Grid1D::expanding(1.0e-6, 1.15, 60e-6);
  chem::DiffusionField field(grid, 1.43e-9, 0.5);
  std::vector<double> source(field.size(), 1.0e-3);

  field.set_source(source);
  field.step(5.0e-3);  // warm-up

  const std::size_t n_alloc = allocations_during([&] {
    for (int k = 0; k < 200; ++k) {
      field.set_source(source);
      field.step(5.0e-3);
    }
  });
  EXPECT_EQ(n_alloc, 0u);
}

TEST(DiffusionAlloc, RedoxSystemStepIsAllocationFree) {
  chem::SolutionRedoxConfig cfg;
  cfg.couple = chem::RedoxCouple{.name = "probe", .n = 1, .e0 = 0.2,
                                 .k0 = 1.0e-5, .alpha = 0.5};
  cfg.area = 0.23e-6;
  cfg.d_red = 0.6e-9;
  cfg.d_ox = 0.6e-9;
  cfg.c_red_bulk = 1.0;
  cfg.c_ox_bulk = 0.0;
  chem::SolutionRedoxSystem system(cfg);
  system.step(0.45, 5.0e-3);  // warm-up

  const std::size_t n_alloc = allocations_during([&] {
    for (int k = 0; k < 200; ++k) system.step(0.45, 5.0e-3);
  });
  EXPECT_EQ(n_alloc, 0u);
}

TEST(DiffusionAlloc, OxidaseProbeStepIsAllocationFree) {
  bio::ProbePtr probe = bio::make_probe(bio::TargetId::kGlucose);
  probe->set_bulk_concentration("glucose", 2.0);
  probe->reset();
  probe->step(0.65, 5.0e-3);  // warm-up

  const std::size_t n_alloc = allocations_during([&] {
    for (int k = 0; k < 200; ++k) probe->step(0.65, 5.0e-3);
  });
  EXPECT_EQ(n_alloc, 0u);
}

// The batched SoA workspace inherits the zero-allocation steady-state
// contract: every buffer is sized at construction (allocate once), then
// step() -- assembly, batched Thomas solve, clamp, flux readout -- never
// touches the heap, at any lane count.
TEST(DiffusionAlloc, BatchedFieldStepIsAllocationFree) {
  chem::Grid1D grid = chem::Grid1D::membrane_bulk(50e-6, 26, 1.18, 60e-6);
  chem::BatchedDiffusionField batch(grid, 4);
  std::vector<double> source(grid.size(), 2.0e-4);
  for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
    batch.configure_lane(lane, 1.0e-9, 1.0);
    batch.set_bulk_concentration(lane, 1.0);
    batch.set_electrode_rate(lane, 1.0e-5);
  }
  batch.set_source(1, source);
  batch.step(5.0e-3);  // warm-up: any lazy buffers fill here

  const std::size_t n_alloc = allocations_during([&] {
    for (int k = 0; k < 200; ++k) {
      batch.set_source(1, source);
      batch.step(5.0e-3);
    }
  });
  EXPECT_EQ(n_alloc, 0u);
}

// Same contract one layer up: the panel-level oxidase lane batch steps W
// probes (2W solver lanes) with zero heap allocations after construction.
TEST(DiffusionAlloc, OxidaseLaneBatchStepIsAllocationFree) {
  bio::ProbePtr glucose = bio::make_probe(bio::TargetId::kGlucose);
  bio::ProbePtr lactate = bio::make_probe(bio::TargetId::kLactate);
  glucose->set_bulk_concentration("glucose", 2.0);
  lactate->set_bulk_concentration("lactate", 1.0);
  std::vector<bio::OxidaseProbe*> probes = {
      dynamic_cast<bio::OxidaseProbe*>(glucose.get()),
      dynamic_cast<bio::OxidaseProbe*>(lactate.get())};
  ASSERT_NE(probes[0], nullptr);
  ASSERT_NE(probes[1], nullptr);
  const fault::SensorState pristine{};
  std::vector<const fault::SensorState*> sensors = {&pristine, &pristine};
  bio::OxidaseLaneBatch batch(probes, sensors);

  const double e[2] = {0.65, 0.65};
  double i_out[2] = {0.0, 0.0};
  batch.step(e, 5.0e-3, i_out);  // warm-up

  const std::size_t n_alloc = allocations_during([&] {
    for (int k = 0; k < 200; ++k) batch.step(e, 5.0e-3, i_out);
  });
  EXPECT_EQ(n_alloc, 0u);
}

}  // namespace
}  // namespace idp
