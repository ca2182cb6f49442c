// Report fixtures shared by the isolation and worker-pool suites: a
// report with every serialized field set, and a field-by-field equality
// check, so a marshalling path that drops a field cannot pass.
#pragma once

#include <gtest/gtest.h>

#include "core/octopocs.h"

namespace octopocs::core {

/// A report with every serialized field away from its default, so a
/// round-trip that drops a field cannot pass by accident.
inline VerificationReport FullReport() {
  VerificationReport r;
  r.verdict = Verdict::kTriggered;
  r.type = ResultType::kTypeII;
  r.detail = "tricky \"detail\"\nwith\tescapes\x01and bytes";
  r.ep_name = "png_read_chunk";
  r.ep_in_s = 3;
  r.ep_in_t = 5;
  r.ep_encounters_in_s = 2;
  r.bunch_count = 2;
  r.crash_primitive_bytes = 12;
  r.symex_status = symex::SymexStatus::kPocGenerated;
  r.poc_generated = true;
  r.reformed_poc = {0x25, 0x50, 0x00, 0xff};
  r.bunch_offsets = {6, 7, 1000};
  r.observed_trap = vm::TrapKind::kOutOfBounds;
  r.failed_phase = "P2/P3";
  r.deadline_expired = true;
  r.exception_contained = true;
  r.timings.preprocess_seconds = 0.125;
  r.timings.p1_seconds = 1.5;
  r.timings.p23_seconds = 2.25;
  r.timings.p4_seconds = 0.0625;
  r.timings.total_seconds = 3.9375;
  return r;
}

inline void ExpectReportsEqual(const VerificationReport& a,
                               const VerificationReport& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.ep_name, b.ep_name);
  EXPECT_EQ(a.ep_in_s, b.ep_in_s);
  EXPECT_EQ(a.ep_in_t, b.ep_in_t);
  EXPECT_EQ(a.ep_encounters_in_s, b.ep_encounters_in_s);
  EXPECT_EQ(a.bunch_count, b.bunch_count);
  EXPECT_EQ(a.crash_primitive_bytes, b.crash_primitive_bytes);
  EXPECT_EQ(a.symex_status, b.symex_status);
  EXPECT_EQ(a.poc_generated, b.poc_generated);
  EXPECT_EQ(a.reformed_poc, b.reformed_poc);
  EXPECT_EQ(a.bunch_offsets, b.bunch_offsets);
  EXPECT_EQ(a.observed_trap, b.observed_trap);
  EXPECT_EQ(a.failed_phase, b.failed_phase);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.exception_contained, b.exception_contained);
  EXPECT_DOUBLE_EQ(a.timings.preprocess_seconds, b.timings.preprocess_seconds);
  EXPECT_DOUBLE_EQ(a.timings.p1_seconds, b.timings.p1_seconds);
  EXPECT_DOUBLE_EQ(a.timings.p23_seconds, b.timings.p23_seconds);
  EXPECT_DOUBLE_EQ(a.timings.p4_seconds, b.timings.p4_seconds);
  EXPECT_DOUBLE_EQ(a.timings.total_seconds, b.timings.total_seconds);
}

}  // namespace octopocs::core
