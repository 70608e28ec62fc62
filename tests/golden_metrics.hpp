// golden_metrics.hpp — recorded RunMetrics digests shared by the test suites.
//
// kGolden maps a scenario key to the FNV-1a digest of its serialised
// write_run_metrics_json record.  Every digest was recorded while the
// simulator still carried a second path per layer (struct device core, heap
// scheduler, dense spatial index), at a commit whose equivalence suites
// asserted both paths produced this same record.  A suite that has lost its
// second path compares its one remaining path against these records.  The
// duty/* digests were recorded while the radio still delivered through two
// memoised sweeps (a batched one and a per-candidate one for gated
// receivers), before the two merged into one.  The fades/* digests were
// recorded while the radio still called the fault hook for every gated
// candidate of every sender, before fades-only plans limited it to the
// senders a live fade episode touches.
//
// A mismatch prints the full JSON record.  Re-record a digest only for a
// change that is meant to move results, and say so in the change log.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "obs/json.hpp"

namespace firefly::golden {

// clang-format off
inline const std::map<std::string, std::uint64_t> kGolden = {
    {"churn/birthday", 0xbb37b7b994aa534dULL},
    {"churn/desync", 0xb2ec7a5457cce50cULL},
    {"churn/desync-drops", 0xb759af136387f4d1ULL},
    {"churn/fst", 0x8c911e13b23ab126ULL},
    {"duty/fst", 0x12e1c121fdbf86adULL},
    {"duty/st", 0x5436e9c8e2cb0cc7ULL},
    {"fades/fst", 0x165c539f21e43260ULL},
    {"fades/service-st", 0x4f4b12cbf07b186aULL},
    {"fades/st", 0xe56ad1ad116f1468ULL},
    {"faults/st-40", 0xbb4316f2c7654164ULL},
    {"faults/st-60-fades", 0x80dc675415af2226ULL},
    {"mobility/st-40", 0x9ed7d035cc7183bcULL},
    {"mobility/st-60", 0xd44e6254c4391b0ULL},
    {"paper/desync-60", 0x5c42dc285ec40782ULL},
    {"paper/fst-60", 0x7a7c796c2444a297ULL},
    {"paper/st-100", 0xc126654015f5891cULL},
    {"paper/st-120", 0xd857c100a9e26d61ULL},
    {"paper/st-80", 0xa545ec34851bf300ULL},
    {"service/birthday", 0xe2646e11943802e2ULL},
    {"service/desync", 0xf693b8c3f9698868ULL},
    {"service/fst", 0x392e9331cc9f1810ULL},
    {"service/st", 0x5615fc55a2098076ULL},
    {"static/birthday", 0x5ff6e2fac7bd5f4fULL},
    {"static/desync", 0xf5897ef73879604bULL},
    {"static/fst", 0xf2edb7360ae261feULL},
    {"static/st", 0x833adbfb431b3556ULL},
};
// clang-format on

inline std::string metrics_json(const core::RunMetrics& metrics) {
  std::ostringstream oss;
  obs::JsonWriter w(oss);
  core::write_run_metrics_json(w, metrics);
  return oss.str();
}

inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline void expect_golden(const std::string& key, const core::RunMetrics& metrics) {
  const std::string json = metrics_json(metrics);
  const std::uint64_t digest = fnv1a(json);
  const auto it = kGolden.find(key);
  ASSERT_NE(it, kGolden.end()) << "no golden for " << key << ": digest 0x" << std::hex
                               << digest << "\n" << json;
  EXPECT_EQ(digest, it->second) << key << " diverged from its golden record:\n" << json;
  // Guard against a vacuous pass: the scenario must actually do something.
  EXPECT_GT(metrics.deliveries, 0U) << key;
}

}  // namespace firefly::golden
