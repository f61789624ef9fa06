// Checker hooks. Each hook is a null-guarded call into the machine's
// Checker; with no checker enabled (the default) it costs one pointer test.
//
//   LRCSIM_HOOK(machine, on_read(p, a, bytes));
#pragma once

#include "check/checker.hpp"

#define LRCSIM_HOOK(m, call)                \
  do {                                      \
    if (auto* lrcsim_ck_ = (m).checker()) { \
      lrcsim_ck_->call;                     \
    }                                       \
  } while (0)
