// The loop layouts the end-to-end serving suites run every case under.
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace contend::serve {

/// kThreads spreads connections over several event-loop threads, so the
/// accepting loop hands sockets to the others; kEpoll is a single loop, the
/// daemon's default. The instance names `threads` and `epoll` keep the test
/// ids these suites carried when the daemon had two serving engines.
enum class LoopLayout { kThreads, kEpoll };

/// ServerConfig::loopThreads for `layout`.
[[nodiscard]] inline int loopThreadsFor(LoopLayout layout) {
  return layout == LoopLayout::kThreads ? 2 : 1;
}

[[nodiscard]] inline std::string loopLayoutName(
    const ::testing::TestParamInfo<LoopLayout>& info) {
  return info.param == LoopLayout::kThreads ? "threads" : "epoll";
}

}  // namespace contend::serve

/// Runs every TEST_P case of `fixture` under both layouts, as `Engines/...`.
#define CONTEND_INSTANTIATE_LOOP_LAYOUTS(fixture)                      \
  INSTANTIATE_TEST_SUITE_P(                                            \
      Engines, fixture,                                                \
      ::testing::Values(::contend::serve::LoopLayout::kThreads,        \
                        ::contend::serve::LoopLayout::kEpoll),         \
      ::contend::serve::loopLayoutName)
