#include "retask/cache/scratch.hpp"

namespace retask {

// No obs counters here on purpose: "was this a reuse" depends on which
// thread happened to run which solve, and harness metrics must stay
// bit-identical across --jobs counts (tests/test_obs.cpp pins that).

DpScratch& dp_scratch() {
  thread_local DpScratch scratch;
  return scratch;
}

FptasScratch& fptas_scratch() {
  thread_local FptasScratch scratch;
  return scratch;
}

}  // namespace retask
